"""The tiny frozen backbone most unit tests build their models on: width 16,
4 visual and 2 text layers, taps (2, 4) and (1, 2), a 2x2 patch grid."""

from fsad.backbone import BackboneSpec


def small_spec(**kw):
    """The tiny ``BackboneSpec``, with ``kw`` overriding its fields."""
    base = dict(d=16, vision_layers=4, text_layers=2, selected_visual=(2, 4),
                selected_text=(1, 2), patch_grid=(2, 2), heads=4, seed=5)
    base.update(kw)
    return BackboneSpec(**base)
