"""The SVG figures are well-formed XML whatever the class names hold."""

import xml.dom.minidom

import numpy as np
import pytest

from trajbehav.metrics import ConfusionMatrix, recall_per_class
from trajbehav.svgfig import confusion_heatmap_svg, per_class_bar_svg

NAMES = ['a"b', "c'd", "e&f", "<g>", "h\"'&<>i", "plain"]


def _texts(doc):
    return [t.firstChild.data for t in doc.getElementsByTagName("text") if t.firstChild]


@pytest.mark.parametrize("names", [NAMES, NAMES[:1], ["'only single'"]])
def test_both_writers_give_parseable_xml_for_markup_in_class_names(names):
    n = len(names)
    cm = ConfusionMatrix(np.arange(n * n).reshape(n, n) + 1, list(names))
    heat = xml.dom.minidom.parseString(confusion_heatmap_svg(cm, title='"t" & <u>'))
    assert _texts(heat)[0] == '"t" & <u>'
    assert all(_texts(heat).count(name) == 2 for name in names)

    bars = xml.dom.minidom.parseString(per_class_bar_svg(recall_per_class(cm), names))
    rects = [r for r in bars.getElementsByTagName("rect") if r.getAttribute("class") == "bar"]
    assert [r.getAttribute("data-class") for r in rects] == list(names)
    assert all(name in _texts(bars) for name in names)
