"""The package's top level is its product API: the rankers, the corpus,
the walk and the commands' building blocks.  The slow primal references
that the tests check the rankers against live in their modules only,
and those that nothing in the package or the benchmark calls live with
the tests (``helpers.kernel_eval`` and ``helpers.nb_weight``)."""

import importlib

import premsel

# name -> the module that defines it
REFERENCES = {
    "ridge_solve": "premsel.kernel",
    "ridge_train": "premsel.kernel",
    "ridge_score": "premsel.kernel",
    "RidgeModel": "premsel.kernel",
    "build_kernel_matrix": "premsel.kernel",
    "nb_train": "premsel.naive_bayes",
    "nb_score": "premsel.naive_bayes",
    "NbModel": "premsel.naive_bayes",
}


def test_the_references_are_not_top_level_names():
    assert sorted(set(REFERENCES) & set(premsel.__all__)) == []
    assert [name for name in REFERENCES if hasattr(premsel, name)] == []


def test_every_exported_name_is_defined():
    assert [name for name in premsel.__all__ if not hasattr(premsel, name)] == []


def test_each_reference_imports_from_its_module():
    for name, module in REFERENCES.items():
        assert getattr(importlib.import_module(module), name).__module__ == module, name


def test_the_test_only_references_left_the_package():
    from premsel import kernel, naive_bayes

    assert not hasattr(kernel, "kernel_eval")
    assert not hasattr(naive_bayes.NbModel, "weight")
