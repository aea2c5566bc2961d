import latcsim


def test_every_public_name_resolves():
    missing = [name for name in latcsim.__all__ if not hasattr(latcsim, name)]
    assert not missing
    assert len(set(latcsim.__all__)) == len(latcsim.__all__)
