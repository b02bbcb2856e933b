import math

import pytest

from otterlink.geo import EARTH_RADIUS, latlon_to_local, local_to_latlon


def test_origin_maps_to_zero():
    assert latlon_to_local(45.0, -76.0, 45.0, -76.0) == (0.0, 0.0)


def test_one_degree_north_arc_length():
    north, east = latlon_to_local(46.0, -76.0, 45.0, -76.0)
    assert north == pytest.approx(EARTH_RADIUS * math.pi / 180.0)
    assert east == pytest.approx(0.0, abs=1e-9)


def test_east_offset_scales_with_cos_lat():
    _, east = latlon_to_local(45.0, -75.0, 45.0, -76.0)
    expected = EARTH_RADIUS * math.pi / 180.0 * math.cos(math.radians(45.0))
    assert east == pytest.approx(expected)


def test_roundtrip_near_origin():
    for north, east in [(0.0, 0.0), (123.4, -56.7), (-1000.0, 2000.0)]:
        lat, lon = local_to_latlon(north, east, 45.0, -76.0)
        back = latlon_to_local(lat, lon, 45.0, -76.0)
        assert back[0] == pytest.approx(north, abs=1e-6)
        assert back[1] == pytest.approx(east, abs=1e-6)


@pytest.mark.parametrize("lat, origin_lat", [(90.5, 45.0), (45.0, -91.0)])
def test_latitude_beyond_a_pole_rejected(lat, origin_lat):
    with pytest.raises(ValueError, match="latitude out of"):
        latlon_to_local(lat, 0.0, origin_lat, 0.0)
