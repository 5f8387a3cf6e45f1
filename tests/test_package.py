import anisoradon
import anisoradon.numerics


def test_every_exported_name_resolves():
    for module in (anisoradon, anisoradon.numerics):
        missing = [name for name in module.__all__
                   if not hasattr(module, name)]
        assert missing == [], module.__name__
