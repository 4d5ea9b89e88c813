import hashlib

import pytest

from swarmbc.svg import PALETTE, Series, line_chart


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


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_bare_chart_text_is_pinned():
    # no title and no axis labels: only the ticks, the line and its legend entry
    text = line_chart([Series("only", [0.0, 0.5, 2.0], [-1.25, 3.0, 0.125])])
    assert 'font-size="14"' not in text and 'font-size="12"' not in text
    assert _sha256(text) == "110624402d11039e966a9b8fbb5476f5aa402d237aec7dae4ab9ccceaa31fb1a"


def test_seven_series_chart_text_is_pinned():
    # seven series wrap the six-colour palette; the seventh carries a band
    xs = [1, 2, 3, 4]
    series = [Series(f"s{k}", xs, [k + 0.1 * x * x for x in xs]) for k in range(6)]
    series.append(Series("s6", xs, [3.0, 2.5, 2.0, 1.5], lo=[2.0, 1.75, 1.5, 1.0],
                         hi=[4.0, 3.25, 2.5, 2.0]))
    text = line_chart(series, title="seven series", x_label="expert episodes",
                      y_label="scaled return")
    # s0 and s6 share the first colour: a polyline and a legend line each
    assert text.count(f'stroke="{PALETTE[0]}"') == 4
    assert text.count("<polygon") == 1
    assert _sha256(text) == "213e1328dd72653cc03bb099a3239cc5fb7fccc73c6654af2a6c1758d020aee5"
