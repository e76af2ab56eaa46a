import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssmcell.perception import (
    BONES,
    LANDMARK_NAMES,
    HumanState,
    QUADRANT_CODES,
    SCAN_CHUNK,
    SCAN_PERIOD,
    ScanHits,
    PerceptionError,
    Posture,
    ScannerMount,
    POSTURES,
    SCANNER_MOUNTS,
    landmark_block,
    merge_occupancy,
    pose_landmarks,
    scan_occupancies,
    scan_to_occupancy,
    simulate_scan,
    skeleton_sample,
)
from ssmcell.engine import _least_distance
from ssmcell.scenario import Scenario
from ssmcell.zones import Quadrant, Zone, ZoneLayout, build_zone_layout, classify_point

LAYOUT = build_zone_layout(0.45, 1.5, 0.9, 0.425)
# Far-corner mounts looking back across the monitored area, a placement other
# than the cell's base-side SCANNER_MOUNTS.
FAR_CORNER_MOUNTS = (
    ScannerMount(1.5, -0.45, math.atan2(0.45, -1.5)),
    ScannerMount(1.5, 0.45, math.atan2(-0.45, -1.5)),
)


def human_at(x, y, posture=Posture.STANDING, heading=math.pi, radius=0.3):
    return HumanState(ground=(x, y), heading=heading, posture=posture, footprint_radius=radius)


def forward_mount(x=0.0, y=0.0, heading=0.0):
    return ScannerMount(x, y, heading)


# A mount at the origin whose ray 0 points exactly along +x (angle 0.0).
ALONG_X = forward_mount(heading=ScannerMount.fov / 2)


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


def scan_arrays(scenes):
    """The ground (k, humans, 2), radius and stature arguments of simulate_scan
    and scan_occupancies for scenes of HumanStates, ``scenes[j]`` holding the
    humans of scan j; each human has one radius and stature in every scene."""
    n = len(scenes[0])
    ground = np.array([[human.ground for human in scene] for scene in scenes], dtype=float)
    radius = [human.footprint_radius for human in scenes[0]]
    stature = [human.stature for human in scenes[0]]
    return ground.reshape(len(scenes), n, 2), radius, stature


def cast(mount, humans, t=0.0, **kwargs):
    """One scan by one mount: the k = 1 case of the batch."""
    return simulate_scan((mount,), *scan_arrays([humans]), [t], **kwargs)


class TestSimulateScan:
    def test_empty_scene_all_sentinel(self):
        mount = forward_mount()
        scan = cast(mount, [])
        assert scan.ranges.shape == (1, mount.n_rays)
        assert np.all(scan.ranges == mount.max_range)

    def test_disc_dead_ahead(self):
        assert ALONG_X.ray_angles()[0] == 0.0
        scan = cast(ALONG_X, [human_at(1.0, 0.0)])
        # circle of radius 0.3 centered 1 m ahead: nearest intersection at 0.7 m
        assert scan.ranges[0, 0] == pytest.approx(0.7, abs=1e-9)

    def test_occlusion_nearest_wins(self):
        near = human_at(1.0, 0.0)
        far = human_at(2.0, 0.0)
        scan = cast(ALONG_X, [far, near])
        assert scan.ranges[0, 0] == pytest.approx(0.7, abs=1e-9)

    def test_mount_inside_a_footprint_sees_its_far_edge(self):
        scan = cast(ALONG_X, [human_at(0.1, 0.0)])
        assert scan.ranges[0, 0] == pytest.approx(0.4, abs=1e-9)

    def test_human_below_the_scan_plane_is_not_seen(self):
        mount = forward_mount()
        short = HumanState(ground=(1.0, 0.0), stature=0.3)
        assert np.all(cast(mount, [short]).ranges == mount.max_range)
        assert not np.all(cast(mount, [human_at(1.0, 0.0)]).ranges == mount.max_range)

    def test_off_grid_time_rejected(self):
        with pytest.raises(PerceptionError):
            cast(forward_mount(), [], 0.0171)

    def test_the_first_off_grid_time_is_named(self):
        times = [0.0, 0.03, 0.0701, 0.09, 0.1201]
        with pytest.raises(PerceptionError, match=r"^scan time 0\.0701 is not aligned"):
            simulate_scan((forward_mount(),), np.zeros((5, 0, 2)), [], [], times)

    def test_a_radius_and_stature_per_human(self):
        ground, radius, stature = scan_arrays([[human_at(1.0, 0.0)]])
        with pytest.raises(PerceptionError, match="radius and stature each"):
            simulate_scan((forward_mount(),), ground, radius * 2, stature * 2, [0.0])

    def test_noise_is_seeded_and_bounded(self):
        mount = forward_mount()
        humans = [human_at(1.0, 0.0)]
        a = cast(mount, humans, rng=np.random.default_rng(4), noise=0.005)
        b = cast(mount, humans, rng=np.random.default_rng(4), noise=0.005)
        clean = cast(mount, humans)
        assert np.array_equal(a.ranges, b.ranges)
        hits = clean.ranges < mount.max_range
        assert np.max(np.abs(a.ranges[hits] - clean.ranges[hits])) <= 0.005

    def test_noise_without_rng_rejected(self):
        with pytest.raises(PerceptionError):
            cast(forward_mount(), [], noise=0.005)

    def test_ray_count_formula(self):
        assert ScannerMount.n_rays == len(forward_mount().ray_angles()) == 552

    def test_the_scan_plane_lies_in_the_height_band(self):
        # So every hit point lies in the band, and scan_to_occupancy tests only x and y.
        low, high = ZoneLayout.height_band
        assert low <= ScannerMount.plane_height <= high

    def test_bit_determinism_without_noise(self):
        mount = forward_mount()
        humans = [human_at(1.2, 0.1)]
        a = cast(mount, humans, 0.03)
        b = cast(mount, humans, 0.03)
        assert np.array_equal(a.ranges, b.ranges)


class TestScanToOccupancy:
    def test_all_sentinel_empty(self):
        mount = forward_mount()
        hits = scan_to_occupancy(cast(mount, []), (mount,), LAYOUT)
        assert len(hits) == 0
        assert merge_occupancy(hits).tolist() == [[Zone.NORMAL, Zone.NORMAL]]

    def test_hit_in_danger_zone(self):
        mount = forward_mount(x=0.0, y=-0.45, heading=0.2915)
        hits = scan_to_occupancy(cast(mount, [human_at(0.45, -0.25)]), (mount,), LAYOUT)
        assert len(hits)
        assert (hits.zone[hits.hit] == Zone.DANGER).any()

    def test_two_scanner_merge_is_max(self):
        mounts = SCANNER_MOUNTS
        humans = [human_at(0.9, -0.3)]
        per_scanner = [
            merge_occupancy(scan_to_occupancy(cast(mount, humans), (mount,), LAYOUT))[0]
            for mount in mounts
        ]
        scan = simulate_scan(mounts, *scan_arrays([humans]), [0.0])
        merged = merge_occupancy(scan_to_occupancy(scan, mounts, LAYOUT))[0]
        assert merged.tolist() == np.max(per_scanner, axis=0).tolist()
        assert max(merged) > Zone.NORMAL

    def test_labels_match_pointwise_classification(self):
        humans = [human_at(0.15, -0.2), human_at(1.1, 0.3)]
        rng = np.random.default_rng(12)
        seen = set()
        for mount in FAR_CORNER_MOUNTS:
            scan = cast(mount, humans, rng=rng, noise=0.005)
            hits = scan_to_occupancy(scan, (mount,), LAYOUT)
            ranges = scan.ranges[0]
            hit = ranges < mount.max_range
            assert hits.hit[0].tolist() == hit.tolist()
            assert len(hits) == int(hit.sum()) > 0
            for i, a, r in zip(np.flatnonzero(hit), mount.ray_angles()[hit], ranges[hit]):
                x, y = mount.x + r * math.cos(a), mount.y + r * math.sin(a)
                assert (hits.x[0, i], hits.y[0, i]) == (x, y)
                label = classify_point(LAYOUT, (x, y, mount.plane_height))
                assert label.zone == hits.zone[0, i]
                assert label.quadrant == QUADRANT_CODES[hits.quadrant[0, i]]
                seen.add((label.zone, label.quadrant))
            assert not hits.zone[0, ~hit].any()
        zones = {zone for zone, _ in seen}
        quadrants = {quadrant for _, quadrant in seen}
        assert {Zone.DANGER, Zone.WARNING} <= zones
        assert {Quadrant.LEFT, Quadrant.RIGHT} <= quadrants

    def test_hit_on_the_split_line_is_in_both_quadrants(self):
        mount = ALONG_X  # ray 0 lies on y = 0
        hits = scan_to_occupancy(cast(mount, [human_at(0.45, 0.0, radius=0.2)]), (mount,), LAYOUT)
        assert hits.hit[0, 0] and hits.y[0, 0] == 0.0
        label = classify_point(LAYOUT, (hits.x[0, 0], hits.y[0, 0], mount.plane_height))
        assert label.quadrant is Quadrant.BOTH is QUADRANT_CODES[hits.quadrant[0, 0]]
        assert label.zone == hits.zone[0, 0] == Zone.DANGER

    @pytest.mark.parametrize(
        "quadrants, expected",
        [
            ((Quadrant.BOTH, Quadrant.RIGHT, Quadrant.LEFT), [Zone.DANGER, Zone.DANGER]),
            ((Quadrant.LEFT, Quadrant.RIGHT, Quadrant.BOTH), [Zone.DANGER, Zone.WARNING]),
            ((Quadrant.RIGHT, Quadrant.LEFT, Quadrant.LEFT), [Zone.WARNING, Zone.DANGER]),
        ],
    )
    def test_merge_takes_each_side_maximum(self, quadrants, expected):
        # Three hits of one scan: danger, warning and normal, on the given sides.
        hits = ScanHits(
            hit=np.ones((1, 3), dtype=bool),
            x=np.zeros((1, 3)),
            y=np.zeros((1, 3)),
            zone=np.array([[Zone.DANGER, Zone.WARNING, Zone.NORMAL]], dtype=np.int8),
            quadrant=np.array([[QUADRANT_CODES.index(q) for q in quadrants]], dtype=np.int8),
        )
        assert merge_occupancy(hits).tolist() == [expected]
        assert merge_occupancy(hits, quadrant_blind=True).tolist() == [[max(expected)] * 2]

    def test_mount_mismatch_rejected(self):
        mount = forward_mount()
        scan = cast(mount, [])
        with pytest.raises(PerceptionError):
            scan_to_occupancy(scan, (mount, ALONG_X), LAYOUT)


# Mounts of differing placements to draw from.
MOUNT_POOL = (*SCANNER_MOUNTS, *FAR_CORNER_MOUNTS)


@st.composite
def scan_runs(draw):
    """Mounts, and scenes whose ground positions repeat, as a still script's do.
    Each human has one radius and stature, some below a 0.4 m scan plane."""
    n_humans = draw(st.integers(0, 2))
    n_scans = draw(st.sampled_from((1, SCAN_CHUNK - 1, SCAN_CHUNK + 1, 2 * SCAN_CHUNK + 7)))
    mounts = draw(st.lists(st.sampled_from(MOUNT_POOL), min_size=1, max_size=3, unique=True))
    spots = st.tuples(st.floats(-0.5, 2.5), st.floats(-1.5, 1.5))
    humans = [
        (
            draw(st.lists(spots, min_size=3, max_size=3)),
            draw(st.floats(0.1, 0.5)),  # radius
            draw(st.floats(0.35, 2.1)),  # stature
        )
        for _ in range(n_humans)
    ]
    picks = draw(
        st.lists(
            st.lists(st.integers(0, 2), min_size=n_humans, max_size=n_humans),
            min_size=n_scans,
            max_size=n_scans,
        )
    )
    scenes = [
        tuple(
            HumanState(ground=ground[i], footprint_radius=radius, stature=stature)
            for (ground, radius, stature), i in zip(humans, pick)
        )
        for pick in picks
    ]
    return tuple(mounts), scenes


def scan_by_scan(mounts, scenes, times, rng, noise, blind):
    """The reference: each scan by each mount on its own, merged per scan."""
    out = []
    for scene, t in zip(scenes, times):
        lanes = [
            merge_occupancy(
                scan_to_occupancy(
                    simulate_scan((mount,), *scan_arrays([scene]), [t], rng=rng, noise=noise),
                    (mount,),
                    LAYOUT,
                )
            )[0]
            for mount in mounts
        ]
        left, right = np.max(lanes, axis=0).tolist()
        if blind:
            left = right = max(left, right)
        out.append([left, right])
    return out


def reference_ranges(mount, humans, rng=None, noise=0.0):
    """One scan by one mount, cast disc by disc on 1-D arrays: the per-scan
    arithmetic the batch must reproduce bit for bit."""
    angles = mount.ray_angles()
    ranges = np.full(angles.shape, mount.max_range)
    origin = np.array([mount.x, mount.y])
    ux, uy = np.cos(angles), np.sin(angles)
    for human in humans:
        if not 0.0 <= mount.plane_height <= human.stature:
            continue
        oc = human.ground - origin
        r = human.footprint_radius
        b = ux * oc[0] + uy * oc[1]
        c = float(oc @ oc) - r * r
        disc = b * b - c
        mask = disc >= 0.0
        sq = np.sqrt(np.where(mask, disc, 0.0))
        t1, t2 = b - sq, b + sq
        hit = np.where(t1 > 1e-12, t1, t2)
        valid = mask & (hit > 1e-12) & (hit < mount.max_range)
        ranges = np.where(valid & (hit < ranges), hit, ranges)
    if noise > 0.0:
        jitter = rng.uniform(-noise, noise, ranges.shape)
        hits = ranges < mount.max_range
        ranges = np.where(hits, np.clip(ranges + jitter, 1e-6, mount.max_range), ranges)
    return ranges


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(run=scan_runs(), noise=st.sampled_from((0.0, 0.005)), seed=st.integers(0, 2**32 - 1))
def test_batched_cast_equals_the_reference_bit_for_bit(run, noise, seed):
    mounts, scenes = run
    times = [j * SCAN_PERIOD for j in range(len(scenes))]
    batch_rng, scan_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    batched = simulate_scan(mounts, *scan_arrays(scenes), times, rng=batch_rng, noise=noise).ranges
    expected = [
        np.concatenate([reference_ranges(m, scene, scan_rng, noise) for m in mounts])
        for scene in scenes
    ]
    assert batched.tobytes() == np.array(expected).tobytes()
    assert batch_rng.bit_generator.state == scan_rng.bit_generator.state


def disc_at(mount, bearing, distance, radius=0.3, nudge=0.0):
    """A human whose footprint disc is centred at the bearing (rad) and the
    distance from the mount, turned by nudge rad more."""
    a = bearing + nudge
    return HumanState(
        ground=(mount.x + distance * math.cos(a), mount.y + distance * math.sin(a)),
        footprint_radius=radius,
    )


HEAD_ON = forward_mount()  # rays from -2.4 rad to about 2.394 rad, a blind sector behind
FIRST_RAY, LAST_RAY = HEAD_ON.ray_angles()[[0, -1]].tolist()
# Turns (rad) that put the disc's edges between rays and on them.
NUDGES = (-0.004, -0.0013, 0.0, 0.0021, 0.0043)

# The cases of the cast that generated scenes barely reach, each as mounts and
# a few scenes of one human, the disc turned a little from scene to scene.
CAST_EDGES = {
    "encloses_a_mount": (SCANNER_MOUNTS, [[human_at(0.05, -0.4 + n, radius=0.3)] for n in NUDGES]),
    "across_the_first_ray_from_inside": (
        (HEAD_ON,),
        [[disc_at(HEAD_ON, FIRST_RAY + 0.05, 2.0, nudge=n)] for n in NUDGES],
    ),
    # The bearing lies just before the first ray, so the window wraps.
    "across_the_first_ray_from_the_blind_sector": (
        (HEAD_ON,),
        [[disc_at(HEAD_ON, FIRST_RAY - 0.05, 2.0, nudge=n)] for n in NUDGES],
    ),
    "across_the_last_ray_from_inside": (
        (HEAD_ON,),
        [[disc_at(HEAD_ON, LAST_RAY - 0.05, 2.0, nudge=n)] for n in NUDGES],
    ),
    "across_the_last_ray_from_the_blind_sector": (
        (HEAD_ON,),
        [[disc_at(HEAD_ON, LAST_RAY + 0.05, 2.0, nudge=n)] for n in NUDGES],
    ),
    # The bearing crosses atan2's branch cut at +-pi inside the field of view.
    "across_the_branch_cut": (
        (forward_mount(heading=math.pi),),
        [[disc_at(HEAD_ON, math.pi, 1.5, nudge=n)] for n in NUDGES],
    ),
    "in_the_blind_sector": (
        (HEAD_ON,),
        [[disc_at(HEAD_ON, math.pi, 1.5, nudge=n)] for n in NUDGES],
    ),
    # The disc's near edge lies within max_range, its centre beyond.
    "across_max_range": (
        SCANNER_MOUNTS,
        [[disc_at(SCANNER_MOUNTS[0], 0.29, 5.8, radius=0.5, nudge=n)] for n in NUDGES],
    ),
    # Ray 0 of ALONG_X runs along +x and touches the disc at (2, 0): the
    # discriminant is exactly 0.0.  In floats the bearing, atan2(0.3, 2), is
    # above the half-angle, so the bare cone would start at ray 1.
    "tangent_to_a_ray": ((ALONG_X,), [[human_at(2.0, 0.3)]]),
}


@pytest.mark.parametrize("noise", (0.0, 0.005), ids=("noiseless", "noisy"))
@pytest.mark.parametrize("case", CAST_EDGES)
def test_the_culled_cast_equals_the_reference_at_its_edges(case, noise):
    mounts, scenes = CAST_EDGES[case]
    times = [j * SCAN_PERIOD for j in range(len(scenes))]
    batch_rng, scan_rng = np.random.default_rng(9), np.random.default_rng(9)
    batched = simulate_scan(mounts, *scan_arrays(scenes), times, rng=batch_rng, noise=noise).ranges
    expected = [
        np.concatenate([reference_ranges(m, scene, scan_rng, noise) for m in mounts])
        for scene in scenes
    ]
    assert batched.tobytes() == np.array(expected).tobytes()
    assert batch_rng.bit_generator.state == scan_rng.bit_generator.state


def test_the_cast_edge_cases_are_what_they_say():
    def hits(case):
        mounts, scenes = CAST_EDGES[case]
        times = [j * SCAN_PERIOD for j in range(len(scenes))]
        return simulate_scan(mounts, *scan_arrays(scenes), times).ranges < ScannerMount.max_range

    n = ScannerMount.n_rays
    assert hits("encloses_a_mount")[:, :n].all()
    assert not hits("in_the_blind_sector").any()
    for case in ("first_ray_from_inside", "first_ray_from_the_blind_sector"):
        assert hits(f"across_the_{case}")[:, 0].all()
    for case in ("last_ray_from_inside", "last_ray_from_the_blind_sector"):
        assert hits(f"across_the_{case}")[:, -1].all()
    assert hits("across_the_branch_cut")[:, n // 2].all()
    # Only the central rays of those that meet the disc meet it within max_range.
    angles = SCANNER_MOUNTS[0].ray_angles()
    meeting = [np.sum(np.abs(angles - 0.29 - nudge) < math.asin(0.5 / 5.8)) for nudge in NUDGES]
    ranged = hits("across_max_range")[:, :n].sum(axis=1)
    assert (0 < ranged).all() and (ranged < meeting).all()
    tangent = simulate_scan((ALONG_X,), *scan_arrays(CAST_EDGES["tangent_to_a_ray"][1]), [0.0])
    assert tangent.ranges[0, 0] == 2.0


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(
    run=scan_runs(),
    noise=st.sampled_from((0.0, 0.005, 0.05)),
    blind=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_occupancies_equal_scan_by_scan(run, noise, blind, seed):
    mounts, scenes = run
    times = [j * SCAN_PERIOD for j in range(len(scenes))]
    batch_rng, scan_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    batched = scan_occupancies(
        mounts,
        *scan_arrays(scenes),
        times,
        LAYOUT,
        rng=batch_rng,
        noise=noise,
        quadrant_blind=blind,
    )
    assert batched.dtype == np.int8 and batched.shape == (len(times), 2)
    assert batched.tolist() == scan_by_scan(mounts, scenes, times, scan_rng, noise, blind)
    # Both drew the same values, so the generator goes on alike.
    assert batch_rng.bit_generator.state == scan_rng.bit_generator.state
    assert batch_rng.random() == scan_rng.random()


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(run=scan_runs(), seed=st.integers(0, 2**32 - 2))
def test_without_noise_the_rng_changes_no_range(run, seed):
    # The seed relation of the engine one level down (ROADMAP item 11): a
    # scan without noise reads nothing from its generator.  The trace-level
    # relation sees a leak only where it moves a hit across a zone edge.
    mounts, scenes = run
    times = [j * SCAN_PERIOD for j in range(len(scenes))]
    args = (mounts, *scan_arrays(scenes), times)
    ranges = [
        simulate_scan(*args, rng=np.random.default_rng(s), noise=0.0).ranges
        for s in (seed, seed + 1)
    ]
    assert ranges[0].tobytes() == ranges[1].tobytes()


class TestSkeleton:
    def test_standing_head_height(self):
        frame = skeleton_sample(human_at(0.0, 0.0), 0.0)
        assert frame.landmark("head")[2] == pytest.approx(1.7, abs=1e-12)

    def test_reaching_landmarks_keep_their_floats(self):
        # sha256 of the landmark bytes of seeded REACHING states, some on an
        # axis (x or y exactly 0.0, or both); the arm's float operations must
        # not change.
        rng = np.random.default_rng(2024)
        digest = hashlib.sha256()
        for i in range(500):
            x, y = rng.uniform(-3.0, 3.0, 2).tolist()
            if i % 5 == 1:
                x = 0.0
            if i % 7 == 2:
                y = 0.0
            human = HumanState(
                ground=(x, y),
                heading=float(rng.uniform(-math.pi, math.pi)),
                stature=float(rng.uniform(1.2, 2.1)),
                posture=Posture.REACHING,
            )
            digest.update(pose_landmarks(human).tobytes())
        assert digest.hexdigest() == (
            "ab29acf7fdf831e7ffa86ffe80a612e088e433c409b55561f3d889004504793c"
        )

    def test_landmark_blocks_equal_the_landmarks_of_each_state(self):
        # sha256 of the landmark bytes of seeded standing, reaching and
        # leaning states, some on an axis, in groups of one stature: built
        # state by state with pose_landmarks, and as one block per stature.
        # The hash was recorded with pose_landmarks before blocks existed.
        rng = np.random.default_rng(12)
        by_state, by_block = hashlib.sha256(), hashlib.sha256()
        for stature in (1.2, 1.7, 1.85, 2.1):
            rows = []
            for i in range(150):
                x, y = rng.uniform(-3.0, 3.0, 2).tolist()
                if i % 5 == 1:
                    x = 0.0
                if i % 7 == 2:
                    y = 0.0
                rows.append((x, y, float(rng.uniform(-math.pi, math.pi)), POSTURES[i % 3]))
            for x, y, heading, posture in rows:
                human = HumanState(ground=(x, y), heading=heading, posture=posture, stature=stature)
                by_state.update(pose_landmarks(human).tobytes())
            x, y, heading, posture = zip(*rows)
            block = landmark_block(
                x,
                y,
                [math.cos(h) for h in heading],
                [math.sin(h) for h in heading],
                [POSTURES.index(p) for p in posture],
                stature,
            )
            assert block.shape == (150, 32, 3)
            by_block.update(block.tobytes())
        pinned = "83c75102a9d4e7fb9dca27aed172046e82aa78c79970a9a1423ca52e4e3b7b17"
        assert by_state.hexdigest() == pinned
        assert by_block.hexdigest() == pinned

    @pytest.mark.parametrize(
        "ground, heading, posture, pinned",
        [
            # The nearer (left) shoulder on the z axis: the arm points straight
            # down, and the thumb takes the fixed (1, 0, 0) direction.
            (
                (0.0, -(0.11 * 1.7)),
                0.0,
                Posture.REACHING,
                "1bed07f97004380607248382ce5403e8f1423a7a7a82ded70c06bad215830b1f",
            ),
            # On the base origin, with no direction to lean in: the standing pose.
            (
                (0.0, 0.0),
                0.7,
                Posture.LEANING,
                "4e3e47a80f861ca907b8c1c3dbf9c58823e7c4e5c1e983941758dff90f3fa417",
            ),
        ],
        ids=["reaching_shoulder_on_the_z_axis", "leaning_at_the_base_origin"],
    )
    def test_degenerate_bends_keep_their_bytes(self, ground, heading, posture, pinned):
        # sha256 of the state's landmark bytes, recorded when each state was
        # bent on its own; in a block between states of the same posture that
        # bend in full, its rows keep them.
        human = HumanState(ground=ground, heading=heading, posture=posture, stature=1.7)
        assert hashlib.sha256(pose_landmarks(human).tobytes()).hexdigest() == pinned
        x, y = [ground[0], 1.2, ground[0], -0.4], [ground[1], 0.3, ground[1], -0.9]
        cos_h, sin_h = [math.cos(heading)] * 4, [math.sin(heading)] * 4
        block = landmark_block(x, y, cos_h, sin_h, [POSTURES.index(posture)] * 4, 1.7)
        for k in (0, 2):
            assert hashlib.sha256(block[k].tobytes()).hexdigest() == pinned
        standing = landmark_block(x, y, cos_h, sin_h, [POSTURES.index(Posture.STANDING)] * 4, 1.7)
        assert not np.array_equal(block[[1, 3]], standing[[1, 3]])

    def test_a_rows_bits_do_not_depend_on_its_place_in_the_block(self):
        # Under OpenBLAS's Prescott kernel a dot's sum depends on the 16-byte
        # alignment of its vectors, so the block bend must keep each vector
        # where the per-state bend had it.  Each reaching and leaning state is
        # bent alone and at an odd and an even row of a block.
        code = """
import math, sys
import numpy as np
from ssmcell.perception import landmark_block
rng = np.random.default_rng(3)
buf = np.empty(8)
def dot(at, v):
    buf[at : at + 3] = v
    return float(buf[at : at + 3] @ buf[at : at + 3])
if all(dot(0, v) == dot(1, v) for v in rng.uniform(-3.0, 3.0, (200, 3))):
    sys.exit("no alignment dependence")
n = 40
x, y, h = rng.uniform(-3.0, 3.0, n), rng.uniform(-3.0, 3.0, n), rng.uniform(-3.0, 3.0, n)
x[::7], y[::7] = 0.0, 0.0
c, s, p = np.cos(h), np.sin(h), 1 + np.arange(n) % 2
block = landmark_block(x, y, c, s, p, 1.7)
shifted = landmark_block(*(np.append(0.5, a) for a in (x, y, c, s, p)), 1.7)[1:]
alone = [landmark_block(*(a[k : k + 1] for a in (x, y, c, s, p)), 1.7) for k in range(n)]
print(block.tobytes() == shifted.tobytes() == np.concatenate(alone).tobytes())
"""
        env = dict(os.environ, OPENBLAS_CORETYPE="Prescott")
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, cwd=src, env=env
        )
        if "no alignment dependence" in done.stderr:
            pytest.skip("numpy's BLAS sums a dot alike at every alignment here")
        assert done.stdout.split() == ["True"], done.stderr

    def test_block_distances_equal_the_distance_of_each_state(self):
        # The batched reduction the engine fills a span's d_i with, against
        # the per-state one, over random blocks and TCPs.
        rng = np.random.default_rng(8)
        for _ in range(200):
            n = int(rng.integers(1, 41))
            block = rng.uniform(-2.0, 2.0, (n, 32, 3))
            tcp = rng.uniform(-0.6, 0.6, 3)
            got = np.linalg.norm(block - tcp, axis=-1).min(axis=-1)
            want = [float(np.min(np.linalg.norm(L - tcp, axis=1))) for L in block]
            assert got.tobytes() == np.array(want).tobytes()

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
    # The reduction the engine measures a skeleton frame's distance with.
    def test_tcp_on_landmark(self):
        frame = skeleton_sample(human_at(1.0, 0.0), 0.0)
        assert _least_distance(frame.landmarks, frame.landmark("wrist_left")) == 0.0

    def test_lower_bound(self):
        frame = skeleton_sample(human_at(5.0, 0.0), 0.0)
        assert _least_distance(frame.landmarks, np.zeros(3)) >= 2.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            frame = skeleton_sample(
                human_at(rng.uniform(0.5, 3.0), rng.uniform(-1, 1)), 0.0
            )
            tcp = rng.uniform([-0.5, -0.5, 0.0], [1.0, 0.5, 1.0])
            dists = [
                math.sqrt(sum((frame.landmarks[i][k] - tcp[k]) ** 2 for k in range(3)))
                for i in range(32)
            ]
            assert _least_distance(frame.landmarks, tcp) == pytest.approx(min(dists), abs=1e-12)


class TestMounts:
    def test_base_corner_mounts_face_forward(self):
        rect = Scenario().build_layout().normal_extent
        assert sorted(m.y for m in SCANNER_MOUNTS) == [rect.y_min, rect.y_max]
        for mount in SCANNER_MOUNTS:
            assert mount.x == rect.x_min
            assert mount.plane_height == LAYOUT.laser_mount_height
            assert abs(mount.heading) < math.pi / 2
            # aimed at the far end of the centre line
            assert mount.heading == pytest.approx(math.atan2(-mount.y, rect.x_max - rect.x_min))

    def test_coverage_from_either_mount_set(self):
        # a disc in the warning band is seen by at least one scanner of each pair
        for mounts in (FAR_CORNER_MOUNTS, SCANNER_MOUNTS):
            humans = [human_at(1.0, 0.0)]
            scan = simulate_scan(mounts, *scan_arrays([humans]), [0.0])
            merged = merge_occupancy(scan_to_occupancy(scan, mounts, LAYOUT))
            assert merged.max() >= Zone.WARNING
