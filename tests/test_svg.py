import pytest

from swarmbc.svg import Series, line_chart


def test_chart_contains_polyline_and_labels():
    text = line_chart(
        [Series("a", [1, 2, 3], [0.1, 0.5, 0.3]),
         Series("b", [1, 2, 3], [0.4, 0.2, 0.6], lo=[0.3, 0.1, 0.5],
                hi=[0.5, 0.3, 0.7])],
        title="demo", x_label="x", y_label="y",
    )
    assert text.startswith("<svg")
    assert text.rstrip().endswith("</svg>")
    assert text.count("<polyline") == 2
    assert text.count("<polygon") == 1  # one band
    for token in ("demo", ">x<", ">y<", ">a<", ">b<"):
        assert token in text


def test_chart_handles_flat_series():
    assert "<polyline" in line_chart([Series("flat", [0, 1], [2.0, 2.0])])


def test_chart_rejects_empty():
    with pytest.raises(ValueError):
        line_chart([])
