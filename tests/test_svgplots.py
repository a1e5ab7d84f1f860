import xml.etree.ElementTree as ET

import numpy as np
import pytest

from vibsense.svgplots import _fmt, heatmap, line_chart, save_svg, scatter_chart

SVG_NS = "{http://www.w3.org/2000/svg}"


def _parse(svg: str) -> ET.Element:
    root = ET.fromstring(svg)
    assert root.tag == f"{SVG_NS}svg"
    return root


def test_fmt_normalizes_negative_zero():
    assert _fmt(-0.0) == "0"
    assert _fmt(0.5) == "0.5"
    assert _fmt(1234567.0) == "1.23457e+06"


def test_line_chart_is_valid_and_deterministic():
    series = [("CV accuracy", [1, 2, 3], [0.5, 0.62, 0.7]), ("other", [1, 2, 3], [0.2, 0.3, 0.1])]
    svg = line_chart(series, title="k sweep", x_label="k", y_label="accuracy")
    root = _parse(svg)
    assert svg == line_chart(series, title="k sweep", x_label="k", y_label="accuracy")
    text = ET.tostring(root, encoding="unicode")
    for label in ("k sweep", "CV accuracy", "accuracy"):
        assert label in text
    assert len(root.findall(f".//{SVG_NS}polyline")) == 2
    assert len(root.findall(f".//{SVG_NS}circle")) == 6


def test_line_chart_rejects_empty_input():
    with pytest.raises(ValueError):
        line_chart([])
    with pytest.raises(ValueError):
        line_chart([("x", [], [])])


def test_line_chart_escapes_markup():
    svg = line_chart([("a<b>&c", [0, 1], [0, 1])], title="t&t")
    _parse(svg)
    assert "a&lt;b&gt;&amp;c" in svg


def test_scatter_chart_with_fit_line():
    xs = [0, 1, 2, 3, 4]
    ys = [1.0, 3.2, 4.9, 7.1, 9.0]
    svg = scatter_chart(xs, ys, line=(2.0, 1.0), title="fit", x_label="x", y_label="y")
    root = _parse(svg)
    assert len(root.findall(f".//{SVG_NS}circle")) == 5
    lines = root.findall(f".//{SVG_NS}line")
    assert len(lines) >= 1  # the overlay, plus any tick strokes drawn as lines
    no_line = scatter_chart(xs, ys)
    assert _parse(no_line) is not None


def test_scatter_chart_validation():
    with pytest.raises(ValueError):
        scatter_chart([], [])
    with pytest.raises(ValueError):
        scatter_chart([1, 2], [1])


def test_heatmap_cells_and_annotations():
    matrix = np.array([[5, 0, 1], [0, 7, 0]])
    svg = heatmap(matrix, ["r0", "r1"], ["c0", "c1", "c2"], title="confusion")
    root = _parse(svg)
    rects = root.findall(f".//{SVG_NS}rect")
    assert len(rects) == 1 + 6  # background + one per cell
    text = ET.tostring(root, encoding="unicode")
    for label in ("r0", "r1", "c0", "c2", "confusion", "5", "7"):
        assert label in text


def test_heatmap_validation():
    with pytest.raises(ValueError):
        heatmap(np.zeros((2, 2)), ["a"], ["b", "c"])
    with pytest.raises(ValueError):
        heatmap(np.zeros(3), ["a"], ["b"])


def test_heatmap_all_zero_matrix_renders():
    _parse(heatmap(np.zeros((2, 2)), ["a", "b"], ["c", "d"]))


def test_save_svg(tmp_path):
    target = tmp_path / "chart.svg"
    svg = line_chart([("s", [0, 1], [1, 0])])
    save_svg(svg, target)
    assert target.read_text() == svg


def test_heatmap_exact_document():
    svg = heatmap([[3, 1], [0, 2]], ["a", "b<"], ["x", "y"], title="T&1")
    assert svg == (
        "<svg xmlns='http://www.w3.org/2000/svg' width='262' height='212' viewBox='0 0 262 212'>\n"
        "<rect width='262' height='212' fill='white'/>\n"
        "<text x='131' y='20' font-family='monospace' font-size='13' text-anchor='middle'>"
        "T&amp;1</text>\n"
        "<text x='158' y='52' font-family='monospace' font-size='11' text-anchor='middle'>x</text>\n"
        "<text x='214' y='52' font-family='monospace' font-size='11' text-anchor='middle'>y</text>\n"
        "<text x='122' y='92' font-family='monospace' font-size='11' text-anchor='end'>a</text>\n"
        "<text x='122' y='148' font-family='monospace' font-size='11' text-anchor='end'>b&lt;</text>\n"
        "<rect x='130' y='60' width='56' height='56' fill='rgb(51,98,142)' stroke='#999'/>\n"
        "<text x='158' y='92' font-family='monospace' font-size='11' text-anchor='middle' "
        "fill='#fff'>3</text>\n"
        "<rect x='186' y='60' width='56' height='56' fill='rgb(187,203,217)' stroke='#999'/>\n"
        "<text x='214' y='92' font-family='monospace' font-size='11' text-anchor='middle' "
        "fill='#111'>1</text>\n"
        "<rect x='130' y='116' width='56' height='56' fill='rgb(255,255,255)' stroke='#999'/>\n"
        "<text x='158' y='148' font-family='monospace' font-size='11' text-anchor='middle' "
        "fill='#111'>0</text>\n"
        "<rect x='186' y='116' width='56' height='56' fill='rgb(119,150,180)' stroke='#999'/>\n"
        "<text x='214' y='148' font-family='monospace' font-size='11' text-anchor='middle' "
        "fill='#fff'>2</text>\n"
        "</svg>\n"
    )


def test_line_chart_exact_document():
    svg = line_chart([("s", [1, 2], [0.5, 0.75])], title="k <sweep>", x_label="k", y_label="acc")
    tick = "font-family='monospace' font-size='11'"
    assert svg == (
        "<svg xmlns='http://www.w3.org/2000/svg' width='640' height='400' viewBox='0 0 640 400'>\n"
        "<rect width='640' height='400' fill='white'/>\n"
        "<text x='320' y='16' font-family='monospace' font-size='13' text-anchor='middle'>"
        "k &lt;sweep&gt;</text>\n"
        "<rect x='55' y='30' width='570' height='325' fill='none' stroke='#333'/>\n"
        "<line x1='80.9091' y1='355' x2='80.9091' y2='359' stroke='#333'/>\n"
        f"<text x='80.9091' y='371' {tick} text-anchor='middle'>1</text>\n"
        "<line x1='340' y1='355' x2='340' y2='359' stroke='#333'/>\n"
        f"<text x='340' y='371' {tick} text-anchor='middle'>1.5</text>\n"
        "<line x1='599.091' y1='355' x2='599.091' y2='359' stroke='#333'/>\n"
        f"<text x='599.091' y='371' {tick} text-anchor='middle'>2</text>\n"
        "<line x1='51' y1='340.227' x2='55' y2='340.227' stroke='#333'/>\n"
        f"<text x='48' y='344.227' {tick} text-anchor='end'>0.5</text>\n"
        "<line x1='51' y1='222.045' x2='55' y2='222.045' stroke='#333'/>\n"
        f"<text x='48' y='226.045' {tick} text-anchor='end'>0.6</text>\n"
        "<line x1='51' y1='103.864' x2='55' y2='103.864' stroke='#333'/>\n"
        f"<text x='48' y='107.864' {tick} text-anchor='end'>0.7</text>\n"
        f"<text x='340' y='394' {tick} text-anchor='middle'>k</text>\n"
        f"<text x='14' y='192.5' {tick} text-anchor='middle' "
        "transform='rotate(-90 14 192.5)'>acc</text>\n"
        "<polyline points='80.9091,340.227 599.091,44.7727' fill='none' stroke='#1f628e' "
        "stroke-width='1.5'/>\n"
        "<circle cx='80.9091' cy='340.227' r='2.5' fill='#1f628e'/>\n"
        "<circle cx='599.091' cy='44.7727' r='2.5' fill='#1f628e'/>\n"
        f"<text x='617' y='44' {tick} text-anchor='end' fill='#1f628e'>s</text>\n"
        "</svg>\n"
    )


def test_scatter_chart_with_fit_line_exact_document():
    svg = scatter_chart(
        [1, 2], [2.0, 3.0], line=(0.8, 1.3), title="fit <1>", x_label="floor", y_label="amp & mean"
    )
    tick = "font-family='monospace' font-size='11'"
    assert svg == (
        "<svg xmlns='http://www.w3.org/2000/svg' width='640' height='400' viewBox='0 0 640 400'>\n"
        "<rect width='640' height='400' fill='white'/>\n"
        "<text x='320' y='16' font-family='monospace' font-size='13' text-anchor='middle'>"
        "fit &lt;1&gt;</text>\n"
        "<rect x='55' y='30' width='570' height='325' fill='none' stroke='#333'/>\n"
        "<line x1='80.9091' y1='355' x2='80.9091' y2='359' stroke='#333'/>\n"
        f"<text x='80.9091' y='371' {tick} text-anchor='middle'>1</text>\n"
        "<line x1='340' y1='355' x2='340' y2='359' stroke='#333'/>\n"
        f"<text x='340' y='371' {tick} text-anchor='middle'>1.5</text>\n"
        "<line x1='599.091' y1='355' x2='599.091' y2='359' stroke='#333'/>\n"
        f"<text x='599.091' y='371' {tick} text-anchor='middle'>2</text>\n"
        "<line x1='51' y1='340.227' x2='55' y2='340.227' stroke='#333'/>\n"
        f"<text x='48' y='344.227' {tick} text-anchor='end'>2</text>\n"
        "<line x1='51' y1='192.5' x2='55' y2='192.5' stroke='#333'/>\n"
        f"<text x='48' y='196.5' {tick} text-anchor='end'>2.5</text>\n"
        "<line x1='51' y1='44.7727' x2='55' y2='44.7727' stroke='#333'/>\n"
        f"<text x='48' y='48.7727' {tick} text-anchor='end'>3</text>\n"
        f"<text x='340' y='394' {tick} text-anchor='middle'>floor</text>\n"
        f"<text x='14' y='192.5' {tick} text-anchor='middle' "
        "transform='rotate(-90 14 192.5)'>amp &amp; mean</text>\n"
        "<line x1='80.9091' y1='310.682' x2='599.091' y2='74.3182' stroke='#d1495b' "
        "stroke-width='1.5'/>\n"
        "<circle cx='80.9091' cy='340.227' r='3' fill='#1f628e' fill-opacity='0.8'/>\n"
        "<circle cx='599.091' cy='44.7727' r='3' fill='#1f628e' fill-opacity='0.8'/>\n"
        "</svg>\n"
    )
