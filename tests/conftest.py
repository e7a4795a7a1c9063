import pytest

# Where libcst is installed, Hypothesis imports it to print a failing
# example, and that import raises a DeprecationWarning inside pytest's
# report hook; under ``-W error`` pytest would stop with INTERNALERROR
# at the first failing property test. An ini ``filterwarnings`` entry
# loses to ``-W error``; a mark on the item wins over it.
_LIBCST_IMPORT = pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"
)


def pytest_collection_modifyitems(items):
    for item in items:
        item.add_marker(_LIBCST_IMPORT)
