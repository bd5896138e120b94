import essencemap


def test_public_names_resolve_and_are_listed_once():
    names = essencemap.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(essencemap, name)] == []
