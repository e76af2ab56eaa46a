import math

import numpy as np
import pytest

from helpers import oracle_rect_member

from ssmcell.zones import (
    Quadrant,
    Rect,
    SafetyParams,
    Zone,
    ZoneError,
    build_zone_layout,
    classify_footprint,
    classify_point,
    compute_msd_static,
    export_layout,
    footprint_zones,
    quadrant_of,
)

LAYOUT = build_zone_layout(0.5, 1.5, 0.9, 0.425)


class TestStaticMsd:
    def test_worked_example(self):
        params = SafetyParams(1.6, 0.5, 0.85, 0.1)
        assert compute_msd_static(params) == 1.6 * 0.5 + 0.85 + 0.1
        assert compute_msd_static(params) == pytest.approx(1.75, abs=1e-12)

    def test_all_zero(self):
        assert compute_msd_static(SafetyParams(0, 0, 0, 0)) == 0.0

    def test_second_worked_example(self):
        params = SafetyParams(1.6, 0.2, 0.0, 0.05)
        assert compute_msd_static(params) == 1.6 * 0.2 + 0.0 + 0.05
        assert compute_msd_static(params) == pytest.approx(0.37, abs=1e-12)

    def test_negative_input_rejected(self):
        with pytest.raises(ZoneError):
            SafetyParams(-1.0, 0.5, 0.85, 0.1)

    def test_linearity_in_approach_speed(self):
        # dyadic inputs make the float difference exact
        a = compute_msd_static(SafetyParams(3.0, 0.5, 0.75, 0.125))
        b = compute_msd_static(SafetyParams(1.5, 0.5, 0.75, 0.125))
        assert a - b == 1.5 * 0.5
        a = compute_msd_static(SafetyParams(3.2, 0.5, 0.85, 0.1))
        b = compute_msd_static(SafetyParams(1.6, 0.5, 0.85, 0.1))
        assert a - b == pytest.approx(1.6 * 0.5, abs=1e-12)


class TestLayout:
    def test_nesting_and_quadrants(self):
        assert LAYOUT.danger_extent.strictly_inside(LAYOUT.warning_extent)
        assert LAYOUT.warning_extent.strictly_inside(LAYOUT.normal_extent)
        assert LAYOUT.quadrant_half_width == 0.425

    def test_infeasible_msd(self):
        with pytest.raises(ZoneError):
            build_zone_layout(2.0, 1.5, 0.9, 0.425)

    def test_quadrant_areas_equal(self):
        for zone in Zone:
            r = LAYOUT.extent(zone)
            left = (r.x_max - r.x_min) * (0.0 - r.y_min)
            right = (r.x_max - r.x_min) * (r.y_max - 0.0)
            assert abs(left - right) < 1e-12

    def test_warning_edge_at_msd_from_stretched_tcp(self):
        # stretched TCP sits at x = reach on the approach axis
        assert LAYOUT.warning_extent.x_max - LAYOUT.reach == pytest.approx(0.5, abs=1e-12)

    def test_export_contains_all_layers(self):
        text = export_layout(LAYOUT)
        for token in ("[danger]", "[warning]", "[normal]", "msd = 0.500000"):
            assert token in text
        # corner rows carry six decimal places
        assert "corner_0 = 0.000000" in text


class TestClassifyPoint:
    def test_origin_is_danger(self):
        assert classify_point(LAYOUT, (0.0, 0.0, 0.0)).zone == Zone.DANGER

    def test_warning_right(self):
        label = classify_point(LAYOUT, (1.0, 0.2, 0.1))
        assert label.zone == Zone.WARNING
        assert label.quadrant == Quadrant.RIGHT

    def test_above_height_band_is_normal(self):
        assert classify_point(LAYOUT, (0.1, 0.0, 5.0)).zone == Zone.NORMAL

    def test_split_line_is_both(self):
        assert classify_point(LAYOUT, (0.3, 0.0, 0.0)).quadrant == Quadrant.BOTH

    def test_brute_force_agreement_10k(self):
        rng = np.random.default_rng(99)
        pts = rng.uniform([-0.5, -1.0, -0.5], [2.5, 1.0, 2.5], size=(10_000, 3))
        for p in pts:
            assert classify_point(LAYOUT, p).zone == oracle_rect_member(LAYOUT, *p)


@pytest.mark.parametrize(
    "y, quadrant",
    [(-0.1, Quadrant.LEFT), (0.1, Quadrant.RIGHT), (0.0, Quadrant.BOTH), (-0.0, Quadrant.BOTH)]
    + [(math.nan, Quadrant.BOTH), (np.float64(-1e-300), Quadrant.LEFT)],
)
def test_quadrant_of(y, quadrant):
    assert quadrant_of(y) is quadrant


class TestClassifyFootprint:
    def test_disc_inside_normal_right(self):
        label = classify_footprint(LAYOUT, (1.45, 0.6, 0.0)[:2], 0.05)
        assert (label.zone, label.quadrant) == (Zone.NORMAL, Quadrant.RIGHT)

    def test_disc_on_split_line_in_warning(self):
        label = classify_footprint(LAYOUT, (1.0, 0.0), 0.2)
        assert (label.zone, label.quadrant) == (Zone.WARNING, Quadrant.BOTH)

    def test_radius_must_be_positive(self):
        with pytest.raises(ZoneError):
            classify_footprint(LAYOUT, (1.0, 0.0), 0.0)

    def test_sampling_oracle_1000_discs(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            c = rng.uniform([-0.3, -0.8], [2.2, 0.8])
            radius = rng.uniform(0.05, 0.45)
            label = classify_footprint(LAYOUT, c, radius)
            best = classify_point(LAYOUT, (c[0], c[1], 0.0)).zone
            for k in range(360):
                ang = 2 * math.pi * k / 360
                p = (c[0] + radius * math.cos(ang), c[1] + radius * math.sin(ang), 0.0)
                best = max(best, classify_point(LAYOUT, p).zone)
            assert label.zone == best

    def test_footprint_severity_dominates_center(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            c = rng.uniform([-0.3, -0.8], [2.2, 0.8])
            radius = rng.uniform(0.05, 0.45)
            assert (
                classify_footprint(LAYOUT, c, radius).zone
                >= classify_point(LAYOUT, (c[0], c[1], 0.0)).zone
            )


class TestFootprintZones:
    def test_each_equals_classify_footprint(self):
        # Random discs, and discs whose distance to an extent is exactly the
        # radius or one ulp either side of it, where np.hypot and math.hypot
        # could round apart.
        rng = np.random.default_rng(41)
        radius = 0.3
        x = rng.uniform(-0.5, 2.2, 3000)
        y = rng.uniform(-1.0, 1.0, 3000)
        edges = []
        for level in (Zone.WARNING, Zone.DANGER):
            rect = LAYOUT.extent(level)
            for ang in rng.uniform(-math.pi / 2, math.pi / 2, 200):
                cx = rect.x_max + radius * math.cos(ang)
                cy = min(max(radius * math.sin(ang), rect.y_min), rect.y_max)
                for dx in (math.nextafter(cx, -1.0), cx, math.nextafter(cx, 3.0)):
                    edges.append((dx, cy))
            edges += [(rect.x_max + radius, 0.0), (1.0, rect.y_max + radius)]
        x = np.concatenate([x, [e[0] for e in edges]])
        y = np.concatenate([y, [e[1] for e in edges]])
        got = footprint_zones(LAYOUT, x, y, radius)
        assert got.dtype == np.int8
        want = [classify_footprint(LAYOUT, (a, b), radius).zone for a, b in zip(x, y)]
        assert got.tolist() == want
        assert {Zone.NORMAL, Zone.WARNING, Zone.DANGER} <= set(want)

    def test_radius_must_be_positive(self):
        with pytest.raises(ZoneError):
            footprint_zones(LAYOUT, np.zeros(1), np.zeros(1), 0.0)


class TestMonotonicity:
    def test_severity_never_decreases_toward_origin(self):
        rng = np.random.default_rng(17)
        for _ in range(500):
            p = rng.uniform([-0.3, -0.8], [2.2, 0.8])
            severities = []
            for u in np.linspace(1.0, 0.0, 60):
                severities.append(classify_point(LAYOUT, (p[0] * u, p[1] * u, 0.0)).zone)
            assert all(b >= a for a, b in zip(severities, severities[1:]))


class TestRect:
    def test_distance_inside_is_zero(self):
        r = Rect(0.0, 1.0, -1.0, 1.0)
        assert r.distance_to(0.5, 0.0) == 0.0

    def test_distance_to_corner(self):
        r = Rect(0.0, 1.0, -1.0, 1.0)
        assert r.distance_to(2.0, 2.0) == pytest.approx(math.hypot(1.0, 1.0))
