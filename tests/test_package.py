import zenodrive


def test_export_list_resolves_without_duplicates():
    names = zenodrive.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(zenodrive, name)] == []
