import hashlib

import pytest

from insa import (
    FIGURE_IDS,
    Offsets,
    OutOfDomain,
    build_figure,
    geopotential_from_hp,
    render_table,
)

EXPECTED_IDS = {
    "dTdHp", "dpdHp", "Tisa", "T_dT", "dHdHp_dT", "p", "H_dT", "H_dp", "H_dTdp",
}

# sha256 of each rendered table; any change to a printed digit shows up here.
TABLE_SHA256 = {
    "H_dT": "77d3f1093f574a07f72f2f78394a400c2405f56f49fdd01eb304e39a4ef86f33",
    "H_dTdp": "a416369fd0c1b1ac9141b2fe8a2bb22e9c005bdc299108e2f8529615bdbfac95",
    "H_dp": "00d3b660d6e09694eb270b05fb199d4b902f840812d5df333c72913d4822cacd",
    "T_dT": "f43a5fdbb8a492498530529b9f97bf41f44466132e1757f087064a1ebe413498",
    "Tisa": "31ccce5a320023b42c421786a995966084e4f40f57a01b39dd8977a0e14b48aa",
    "dHdHp_dT": "5a7909638d5b55a2028995dfdaea3a3fcb4f45be5149b4c285d85b486376bc13",
    "dTdHp": "8bb8d599c41d2f92527233f76a53a3f1ae3cd8bb64f972d7f210ddd0af7ad32f",
    "dpdHp": "9ab842e78af944572e663f7a6f0bd1f76c8d4228ca766aedf84007b348f8cd2e",
    "p": "b1cb057e97c3c669fe625c8d1d8febb1cb8b8b66f315998267cee37312b9c408",
}


def test_all_figure_ids_available():
    assert set(FIGURE_IDS) == EXPECTED_IDS


@pytest.mark.parametrize("figure_id", sorted(EXPECTED_IDS))
def test_table_shape(figure_id):
    table = build_figure(figure_id)
    assert table.figure_id == figure_id
    assert len(table.abscissa_km) == 151
    assert table.abscissa_km[0] == 0.0
    assert table.abscissa_km[-1] == 15.0
    assert all(a < b for a, b in zip(table.abscissa_km, table.abscissa_km[1:]))
    for series in table.series:
        assert len(series.values) == len(table.abscissa_km)


@pytest.mark.parametrize("figure_id", sorted(EXPECTED_IDS))
def test_rendered_table_digest(figure_id):
    text = render_table(build_figure(figure_id))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == TABLE_SHA256[figure_id]


def test_series_counts():
    assert len(build_figure("Tisa").series) == 1
    assert len(build_figure("T_dT").series) == 5
    assert len(build_figure("H_dp").series) == 5
    assert len(build_figure("H_dTdp").series) == 5


def test_temperature_gradient_step():
    table = build_figure("dTdHp")
    values = table.series[0].values
    for hp_km, value in zip(table.abscissa_km, values):
        assert value == (-6.5 if hp_km <= 11.0 else 0.0)


def test_standard_temperature_endpoint():
    table = build_figure("Tisa")
    assert table.series[0].values[0] == 288.15


def test_pressure_in_kilopascal():
    table = build_figure("p")
    assert table.series[0].values[0] == pytest.approx(101.325, abs=1e-12)
    assert table.series[0].values[-1] == pytest.approx(12.044552807152818, abs=1e-9)


def test_pressure_slope_endpoint():
    table = build_figure("dpdHp")
    assert table.series[0].values[0] == pytest.approx(-12.013146427738547, abs=1e-9)


def test_temperature_series_offsets():
    table = build_figure("T_dT")
    offs = [series.offsets.delta_T for series in table.series]
    assert offs == [-20.0, -10.0, 0.0, 10.0, 20.0]
    row0 = [series.values[0] for series in table.series]
    assert row0 == [268.15, 278.15, 288.15, 298.15, 308.15]


def test_parallel_lines_in_pressure_offset_figure():
    table = build_figure("H_dp")
    base = table.series[2].values  # delta_p = 0
    for series in table.series:
        gaps = [a - b for a, b in zip(series.values, base)]
        assert max(gaps) - min(gaps) < 1e-9  # km


def test_geopotential_series_match_library():
    table = build_figure("H_dTdp")
    legend = [(s.offsets.delta_T, s.offsets.delta_p) for s in table.series]
    assert legend == [
        (-20.0, -5000.0), (-20.0, 5000.0), (0.0, 0.0), (20.0, -5000.0), (20.0, 5000.0),
    ]
    for series in table.series:
        expected = geopotential_from_hp(11000.0, series.offsets) / 1000.0
        assert series.values[110] == expected


def test_warm_columns_sit_higher():
    table = build_figure("H_dT")
    at_10km = [series.values[100] for series in table.series]
    assert all(a < b for a, b in zip(at_10km, at_10km[1:]))


def test_render_deterministic_and_parsable():
    table = build_figure("H_dp")
    text1, text2 = render_table(table), render_table(build_figure("H_dp"))
    assert text1 == text2
    lines = text1.splitlines()
    assert len(lines) == 151
    first = lines[0].split("\t")
    assert len(first) == 6
    assert float(first[0]) == 0.0


def test_unknown_figure_id():
    with pytest.raises(OutOfDomain):
        build_figure("nope")


_DT_LEGEND = [
    ("dT-20K_dp+0Pa", Offsets(-20.0, 0.0)),
    ("dT-10K_dp+0Pa", Offsets(-10.0, 0.0)),
    ("dT+0K_dp+0Pa", Offsets(0.0, 0.0)),
    ("dT+10K_dp+0Pa", Offsets(10.0, 0.0)),
    ("dT+20K_dp+0Pa", Offsets(20.0, 0.0)),
]

# Every figure id, in CLI order, with the (name, offsets) of its series.
FIGURE_STRUCTURE = {
    "dTdHp": [("dT_dHp_K_per_km", None)],
    "dpdHp": [("dp_dHp_Pa_per_m", None)],
    "Tisa": [("T_isa_K", None)],
    "T_dT": _DT_LEGEND,
    "dHdHp_dT": _DT_LEGEND,
    "p": [("p_kPa", None)],
    "H_dT": _DT_LEGEND,
    "H_dp": [
        ("dT+0K_dp-5000Pa", Offsets(0.0, -5000.0)),
        ("dT+0K_dp-2500Pa", Offsets(0.0, -2500.0)),
        ("dT+0K_dp+0Pa", Offsets(0.0, 0.0)),
        ("dT+0K_dp+2500Pa", Offsets(0.0, 2500.0)),
        ("dT+0K_dp+5000Pa", Offsets(0.0, 5000.0)),
    ],
    "H_dTdp": [
        ("dT-20K_dp-5000Pa", Offsets(-20.0, -5000.0)),
        ("dT-20K_dp+5000Pa", Offsets(-20.0, 5000.0)),
        ("dT+0K_dp+0Pa", Offsets(0.0, 0.0)),
        ("dT+20K_dp-5000Pa", Offsets(20.0, -5000.0)),
        ("dT+20K_dp+5000Pa", Offsets(20.0, 5000.0)),
    ],
}


def test_figure_ids_order_and_series_legends():
    assert FIGURE_IDS == tuple(FIGURE_STRUCTURE)
    for figure_id, legend in FIGURE_STRUCTURE.items():
        series = build_figure(figure_id).series
        assert [(s.name, s.offsets) for s in series] == legend, figure_id
