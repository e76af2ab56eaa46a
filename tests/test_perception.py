import math

import numpy as np
import pytest

from ssmcell.perception import (
    BONES,
    LANDMARK_NAMES,
    HumanState,
    PerceptionError,
    Posture,
    ScannerMount,
    SkeletonFrame,
    default_scanner_mounts,
    merge_occupancy,
    min_distance_tcp,
    pose_landmarks,
    scan_to_occupancy,
    simulate_scan,
    skeleton_sample,
)
from ssmcell.engine import build_scanner_mounts
from ssmcell.zones import Quadrant, Zone, build_zone_layout, classify_point

from helpers import bundled

LAYOUT = build_zone_layout(0.45, 1.5, 0.9, 0.425)
# Base-side corner mounts facing the approach area, as the bundled scenarios place them.
BUNDLED_MOUNTS = build_scanner_mounts(bundled("sorting_benchmark"), LAYOUT)


def human_at(x, y, posture=Posture.STANDING, heading=math.pi, radius=0.3):
    return HumanState(ground=(x, y), heading=heading, posture=posture, footprint_radius=radius)


def forward_mount(**kwargs):
    # fov/resolution chosen so one ray points exactly along the heading
    defaults = dict(x=0.0, y=0.0, heading=0.0, fov=3.14, angular_resolution=0.01, max_range=5.5)
    defaults.update(kwargs)
    return ScannerMount(**defaults)


class TestHumanState:
    def test_distinct_states_compare_unequal_without_raising(self):
        a, b = HumanState((0.0, 1.0)), HumanState((0.0, 1.0))
        assert a != b
        assert a == a

    def test_state_is_a_dict_key(self):
        a, b = HumanState((0.0, 1.0)), HumanState((0.0, 1.0))
        assert {a: "a", b: "b"}[b] == "b"

    @pytest.mark.parametrize("stature", [0.0, -1.7])
    def test_stature_must_be_positive(self, stature):
        with pytest.raises(PerceptionError, match="stature"):
            HumanState((0.0, 1.0), stature=stature)


class TestSimulateScan:
    def test_empty_scene_all_sentinel(self):
        mount = forward_mount()
        scan = simulate_scan(mount, [], 0.0)
        assert scan.ranges.shape == (mount.n_rays,)
        assert np.all(scan.ranges == mount.max_range)

    def test_disc_dead_ahead(self):
        mount = forward_mount()
        scan = simulate_scan(mount, [human_at(1.0, 0.0)], 0.0)
        center_ray = int(np.argmin(np.abs(mount.ray_angles() - 0.0)))
        # circle of radius 0.3 centered 1 m ahead: nearest intersection at 0.7 m
        assert scan.ranges[center_ray] == pytest.approx(0.7, abs=1e-9)

    def test_occlusion_nearest_wins(self):
        mount = forward_mount()
        near = human_at(1.0, 0.0)
        far = human_at(2.0, 0.0)
        scan = simulate_scan(mount, [far, near], 0.0)
        center_ray = int(np.argmin(np.abs(mount.ray_angles())))
        assert scan.ranges[center_ray] == pytest.approx(0.7, abs=1e-9)

    def test_off_grid_time_rejected(self):
        with pytest.raises(PerceptionError):
            simulate_scan(forward_mount(), [], 0.0171)

    def test_noise_is_seeded_and_bounded(self):
        mount = forward_mount()
        humans = [human_at(1.0, 0.0)]
        a = simulate_scan(mount, humans, 0.0, rng=np.random.default_rng(4), noise=0.005)
        b = simulate_scan(mount, humans, 0.0, rng=np.random.default_rng(4), noise=0.005)
        clean = simulate_scan(mount, humans, 0.0)
        assert np.array_equal(a.ranges, b.ranges)
        hits = clean.ranges < mount.max_range
        assert np.max(np.abs(a.ranges[hits] - clean.ranges[hits])) <= 0.005

    def test_noise_without_rng_rejected(self):
        with pytest.raises(PerceptionError):
            simulate_scan(forward_mount(), [], 0.0, noise=0.005)

    def test_ray_count_formula(self):
        mount = forward_mount(fov=4.8, angular_resolution=0.0087)
        assert mount.n_rays == int(4.8 / 0.0087) + 1

    def test_bit_determinism_without_noise(self):
        mount = forward_mount()
        humans = [human_at(1.2, 0.1)]
        a = simulate_scan(mount, humans, 0.03)
        b = simulate_scan(mount, humans, 0.03)
        assert np.array_equal(a.ranges, b.ranges)


class TestScanToOccupancy:
    def test_all_sentinel_empty(self):
        mount = forward_mount()
        scan = simulate_scan(mount, [], 0.0)
        assert scan_to_occupancy(scan, mount, LAYOUT) == []

    def test_hit_in_danger_zone(self):
        mount = forward_mount(x=0.0, y=-0.45, heading=0.2915)
        scan = simulate_scan(mount, [human_at(0.45, -0.25)], 0.0)
        entries = scan_to_occupancy(scan, mount, LAYOUT)
        assert entries
        assert any(label.zone == Zone.DANGER for label, _ in entries)

    def test_two_scanner_merge_is_max(self):
        mounts = BUNDLED_MOUNTS
        humans = [human_at(0.9, -0.3)]
        entries = []
        per_scanner = []
        for mount in mounts:
            e = scan_to_occupancy(simulate_scan(mount, humans, 0.0), mount, LAYOUT)
            per_scanner.append(merge_occupancy(e))
            entries.extend(e)
        merged = merge_occupancy(entries)
        for quadrant in (Quadrant.LEFT, Quadrant.RIGHT):
            assert merged[quadrant] == max(p[quadrant] for p in per_scanner)

    def test_labels_match_pointwise_classification(self):
        humans = [human_at(0.15, -0.2), human_at(1.1, 0.3)]
        rng = np.random.default_rng(12)
        seen = set()
        for mount in default_scanner_mounts(LAYOUT):
            scan = simulate_scan(mount, humans, 0.0, rng=rng, noise=0.005)
            entries = scan_to_occupancy(scan, mount, LAYOUT)
            hits = scan.ranges < mount.max_range
            assert len(entries) == int(hits.sum()) > 0
            for (label, p), a, r in zip(entries, mount.ray_angles()[hits], scan.ranges[hits]):
                x, y = mount.x + r * math.cos(a), mount.y + r * math.sin(a)
                assert np.array_equal(p, [x, y, mount.plane_height])
                assert label == classify_point(LAYOUT, p)
                seen.add((label.zone, label.quadrant))
        zones = {zone for zone, _ in seen}
        quadrants = {quadrant for _, quadrant in seen}
        assert {Zone.DANGER, Zone.WARNING} <= zones
        assert {Quadrant.LEFT, Quadrant.RIGHT} <= quadrants

    def test_mount_mismatch_rejected(self):
        mount = forward_mount()
        scan = simulate_scan(mount, [], 0.0)
        other = forward_mount(angular_resolution=0.02)
        with pytest.raises(PerceptionError):
            scan_to_occupancy(scan, other, LAYOUT)


class TestSkeleton:
    def test_standing_head_height(self):
        frame = skeleton_sample(human_at(0.0, 0.0), 0.0)
        assert frame.landmark("head")[2] == pytest.approx(1.7, abs=1e-12)

    def test_exactly_32_landmarks(self):
        frame = skeleton_sample(human_at(1.0, 0.5), 0.0)
        assert frame.landmarks.shape == (32, 3)
        assert len(LANDMARK_NAMES) == 32

    def test_reaching_wrist_closer_than_any_standing_landmark(self):
        standing = skeleton_sample(human_at(2.0, -0.3), 0.0)
        reaching = skeleton_sample(human_at(2.0, -0.3, posture=Posture.REACHING), 0.0)
        standing_min = np.min(np.linalg.norm(standing.landmarks, axis=1))
        wrists = [
            np.linalg.norm(reaching.landmark("wrist_left")),
            np.linalg.norm(reaching.landmark("wrist_right")),
        ]
        assert min(wrists) < standing_min

    def test_bone_lengths_invariant_across_postures(self):
        def bone_lengths(frame):
            return {(a, b): np.linalg.norm(frame.landmark(a) - frame.landmark(b)) for a, b in BONES}

        base = bone_lengths(skeleton_sample(human_at(1.5, 0.2), 0.0))
        for posture in (Posture.REACHING, Posture.LEANING):
            other = bone_lengths(skeleton_sample(human_at(1.1, -0.4, posture=posture), 0.0))
            for bone in BONES:
                assert abs(base[bone] - other[bone]) < 1e-9, bone

    def test_walk_step_displacement(self):
        from ssmcell.scenario import HumanScript, HumanWaypoint

        script = HumanScript(
            waypoints=(HumanWaypoint(0.0, 2.0, 0.0), HumanWaypoint(2.0, 0.0, 0.0))
        )
        f1 = skeleton_sample(script.state_at(30 / 30.0), 30 / 30.0)
        f2 = skeleton_sample(script.state_at(31 / 30.0), 31 / 30.0)
        step = np.linalg.norm(f2.landmark("pelvis") - f1.landmark("pelvis"))
        assert step == pytest.approx(1.0 / 30.0, abs=1e-9)

    def test_off_grid_rejected(self):
        with pytest.raises(PerceptionError):
            skeleton_sample(human_at(1.0, 0.0), 0.0201)

    def test_timestamps_on_grid(self):
        frame = skeleton_sample(human_at(1.0, 0.0), 7 / 30.0)
        assert frame.t == 7 / 30.0


class TestMinDistance:
    def test_tcp_on_landmark(self):
        frame = skeleton_sample(human_at(1.0, 0.0), 0.0)
        tcp = frame.landmark("wrist_left")
        d, name = min_distance_tcp(frame, tcp)
        assert d == 0.0
        assert name == "wrist_left"

    def test_lower_bound(self):
        frame = skeleton_sample(human_at(5.0, 0.0), 0.0)
        d, _ = min_distance_tcp(frame, (0.0, 0.0, 0.0))
        assert d >= 2.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            frame = skeleton_sample(
                human_at(rng.uniform(0.5, 3.0), rng.uniform(-1, 1)), 0.0
            )
            tcp = rng.uniform([-0.5, -0.5, 0.0], [1.0, 0.5, 1.0])
            d, name = min_distance_tcp(frame, tcp)
            dists = [
                math.sqrt(sum((frame.landmarks[i][k] - tcp[k]) ** 2 for k in range(3)))
                for i in range(32)
            ]
            assert d == pytest.approx(min(dists), abs=1e-12)
            assert name == LANDMARK_NAMES[int(np.argmin(dists))]

    def test_zero_confidence_ignored(self):
        frame = skeleton_sample(human_at(1.0, 0.0), 0.0)
        tcp = frame.landmark("wrist_left")
        conf = frame.confidence.copy()
        conf[LANDMARK_NAMES.index("wrist_left")] = 0.0
        masked = SkeletonFrame(t=frame.t, landmarks=frame.landmarks, confidence=conf)
        d, name = min_distance_tcp(masked, tcp)
        assert name != "wrist_left"
        assert d > 0.0

    def test_tie_breaks_to_lowest_index(self):
        landmarks = np.zeros((32, 3))  # every landmark equidistant
        frame = SkeletonFrame(t=0.0, landmarks=landmarks, confidence=np.ones(32))
        _, name = min_distance_tcp(frame, (1.0, 0.0, 0.0))
        assert name == LANDMARK_NAMES[0]


class TestMounts:
    def test_default_mounts_far_corners(self):
        mounts = default_scanner_mounts(LAYOUT)
        assert len(mounts) == 2
        for mount in mounts:
            assert mount.x == LAYOUT.normal_extent.x_max
            assert mount.plane_height == LAYOUT.laser_mount_height

    def test_base_corner_mounts_face_forward(self):
        rect = LAYOUT.normal_extent
        assert sorted(m.y for m in BUNDLED_MOUNTS) == [rect.y_min, rect.y_max]
        for mount in BUNDLED_MOUNTS:
            assert mount.x == rect.x_min
            assert abs(mount.heading) < math.pi / 2
            # aimed at the far end of the centre line
            assert mount.heading == pytest.approx(math.atan2(-mount.y, rect.x_max - rect.x_min))

    def test_coverage_from_either_mount_set(self):
        # a disc in the warning band is seen by at least one scanner of each pair
        for mounts in (default_scanner_mounts(LAYOUT), BUNDLED_MOUNTS):
            humans = [human_at(1.0, 0.0)]
            entries = []
            for mount in mounts:
                entries.extend(
                    scan_to_occupancy(simulate_scan(mount, humans, 0.0), mount, LAYOUT)
                )
            merged = merge_occupancy(entries)
            assert max(merged.values()) >= Zone.WARNING
