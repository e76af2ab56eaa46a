"""Exactness of the quiescent-tick fast path.

Ticks whose inputs repeat the last tick's reuse the last tick's results: the
last skeleton distance, the last merged occupancy, the last controller command
and the last trace row.  The path has no off switch, so the digests below were
recorded with the engine that evaluated every tick in full.
"""

import dataclasses
import hashlib
import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ssmcell import engine, perception
from ssmcell.control import Controller, Gains, ModeKind
from ssmcell.engine import EventKind, run
from ssmcell.kinematics import RobotModel, jacobian
from ssmcell.perception import POSTURES, SCAN_PERIOD, Posture, pose_landmarks
from ssmcell.scenario import (
    HumanScript,
    HumanWaypoint,
    RobotTask,
    Scenario,
    SimMode,
    TaskStep,
    parse_scenario,
    serialize_scenario,
)
from ssmcell.separation import msd_at_speeds
from ssmcell.tracefile import trace_lines, write_events
from ssmcell.zones import Quadrant, Zone, build_zone_layout, classify_footprint
from helpers import DT, bundled, human_scripts, tiny_scenario


# A walk in, a hold from 0.9 s to 2.1 s, a walk across the split line and a
# hold to the end.  0.9 s and 2.1 s are multiples of 0.3 s, so the hold starts
# and ends on a scan tick (30 ms) and on a skeleton tick (1/30 s).
GRID_HOLD = HumanScript(
    waypoints=(
        HumanWaypoint(0.0, 2.0, 0.3, Posture.STANDING),
        HumanWaypoint(0.9, 0.9, 0.3, Posture.STANDING),
        HumanWaypoint(2.1, 0.9, 0.3, Posture.REACHING),
        HumanWaypoint(3.0, 0.6, -0.1, Posture.STANDING),
        HumanWaypoint(3.6, 0.6, -0.1, Posture.STANDING),
    )
)

# An operator reaching toward the robot's side, close enough that the
# skeleton loop slows the robot while it moves.
CLOSE_HOLD = HumanScript(
    waypoints=(
        HumanWaypoint(0.0, 0.75, -0.25, Posture.REACHING),
        HumanWaypoint(3.6, 0.75, -0.25, Posture.REACHING),
    ),
    footprint_radius=0.2,
)

# Each variant runs the GRID_HOLD walk, except "parked", which keeps the
# tiny scenario's operator parked in the right quadrant for the whole run,
# and "close_hold".
VARIANTS = {
    "parked": dict(),
    "close_hold": dict(humans=(CLOSE_HOLD,)),
    "noise0": dict(humans=(GRID_HOLD,)),
    "noise_seeded": dict(humans=(GRID_HOLD,), noise=0.005, seed=17),
    "sequential": dict(humans=(GRID_HOLD,), sequential=True),
    "traditional": dict(humans=(GRID_HOLD,), mode=SimMode.TRADITIONAL),
    "autonomous": dict(humans=(GRID_HOLD,), mode=SimMode.AUTONOMOUS),
}

# sha256 of the trace lines (each followed by a line feed) and of events.csv
# for 4 s runs of each variant, recorded with every tick evaluated in full.
# The close_hold and parked operators slow the robot at t = 0, so their runs
# start at the fraction that tick 0 arbitrates to (0.450... and 0.5); they
# used to slew down from 1.0, which only the fraction and v_cap columns of
# their first rows showed.
GOLDEN = {
    "close_hold": (
        "395ee0f799d9b0370917a4e7d57de8a0d26d1f1ae15ac567b8a15188ac66038b",
        "4f86e75dfc36b580c5509968b375c6a28fa5fae5fb6a13edf99a6a9de838da0c",
    ),
    "autonomous": (
        "45c113ae6e907f46a1bc303186b2178de55fd218fb69a4b528ddd4ac2707bad5",
        "cd3b81bb2cdb71eec09aaeba64289a7474e28ac0f5f84b3c11bdb0e6f26276f2",
    ),
    "noise0": (
        "08f85cb43834a6f512c7ca24cb21a1bfef1b2b0c438ceb30c8746563b3d34472",
        "3bbea5bb32fd6a7bc92dd809a66a5cbfc12037bdd7a43101ce24e210e8ad87a3",
    ),
    "noise_seeded": (
        "7a60ddcdf942057637d9ed921e78132962e3be0e9b5c136578194ddacf950148",
        "3bbea5bb32fd6a7bc92dd809a66a5cbfc12037bdd7a43101ce24e210e8ad87a3",
    ),
    "parked": (
        "5796945b6c4a98eb842784658c7a4d88b9e45dbe96c18553c339cbf384e66c32",
        "ff900ae6895344c5b31ad8b3087a6b05f66aac794dea313a751b4237e3633037",
    ),
    "sequential": (
        "0c05283c01b37cc5d561af9b79fb26539b6b55af3c7f21b35b3687f85ce01fce",
        "471c1a9acfde771e8631462659843d47294ea5c4f865087939423df6f1f00c06",
    ),
    "traditional": (
        "8abc8ad92bfa3c3ee608cd9e88b5e3c97aac7aa73b9ea24ea210a9ff68a2fe49",
        "d74f6fecfac829e0f1ce1f37f839cbc80f55698da246bc439c72ecd124d2cfe9",
    ),
}


def variant(name):
    return tiny_scenario(duration=4.0, **{"mode": SimMode.PROPOSED, **VARIANTS[name]})


def digests(result, tmp_path):
    h = hashlib.sha256()
    for line in trace_lines(result.trace):
        h.update(line.encode("utf-8") + b"\n")
    events = tmp_path / "events.csv"
    write_events(result.events, events)
    return h.hexdigest(), hashlib.sha256(events.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_golden_trace_and_events(name, tmp_path):
    assert digests(run(variant(name)), tmp_path) == GOLDEN[name]


HOLDING_SCRIPTS = [
    GRID_HOLD,
    bundled("sorting_benchmark").humans[0],
    bundled("approach_retreat").humans[0],
    # A hold from the first waypoint, on signed zeros, then a posture switch.
    HumanScript(
        waypoints=(
            HumanWaypoint(0.0, -0.0, 0.0, Posture.STANDING),
            HumanWaypoint(1.0, -0.0, 0.0, Posture.REACHING),
            HumanWaypoint(2.0, 0.5, -0.0, Posture.REACHING),
            HumanWaypoint(2.5, 0.5, -0.0, Posture.STANDING),
            HumanWaypoint(3.0, 0.5, 0.4, Posture.STANDING),  # a walk along y alone
        ),
        footprint_radius=0.25,
        stature=1.6,
    ),
]


# Scripts whose times do not increase, which only an unvalidated Scenario
# holds: state_at takes the first segment whose end lies after t.
UNORDERED_SCRIPTS = [
    HumanScript(
        waypoints=(
            HumanWaypoint(0.2, 1.0, 0.2, Posture.REACHING),
            HumanWaypoint(1.0, 0.6, 0.1, Posture.LEANING),
            HumanWaypoint(1.0, 0.8, -0.3, Posture.STANDING),
            HumanWaypoint(0.5, 0.9, 0.3, Posture.REACHING),
            HumanWaypoint(2.0, 0.9, 0.3, Posture.STANDING),
        )
    ),
    HumanScript(waypoints=(HumanWaypoint(0.7, 1.2, -0.2, Posture.STANDING),)),
]


@pytest.mark.parametrize(
    "script", HOLDING_SCRIPTS + UNORDERED_SCRIPTS, ids=lambda s: f"{len(s.waypoints)}wp"
)
def test_track_matches_state_at_at_every_time(script):
    times = {-1.0, 0.0, script.waypoints[-1].t + 3.0}
    for w in script.waypoints:
        times.update((w.t, math.nextafter(w.t, -math.inf), math.nextafter(w.t, math.inf)))
    times = np.array(sorted(times | set((np.arange(1000) * 0.037).tolist())))
    track = script.track(times)
    landmarks = np.concatenate([track.landmarks(k, k + 1) for k in range(len(times))])
    assert track.landmarks(0, len(times)).tobytes() == landmarks.tobytes()
    for k, t in enumerate(times.tolist()):
        state = script.state_at(t)
        piece = track.piece[k]
        got = struct.pack(
            "4d", track.x[k], track.y[k], track.heading[piece], track.walk_speed[piece]
        )
        assert got == struct.pack("4d", *state.ground, state.heading, state.walk_speed), t
        assert POSTURES[track.posture[piece]] == state.posture, t
        assert landmarks[k].tobytes() == pose_landmarks(state).tobytes(), t


MODEL = RobotModel()
LAYOUT = build_zone_layout(0.45, 1.5, 0.9, 0.425)
GAINS = Gains.diagonal()
REGULAR_Q = np.array([0.4, -1.1, 0.9, 0.6, -0.7, 0.3])


def occ(left=Zone.NORMAL, right=Zone.NORMAL):
    return {Quadrant.LEFT: left, Quadrant.RIGHT: right}


def tick(ctrl, i, **inputs):
    """One step at rest off the reference, so the PD term gives nonzero rates;
    inputs replace these."""
    given = dict(
        robot_quadrant=Quadrant.LEFT,
        task_direction=np.array([0.6, 0.0, -0.8]),
        joint_reference=REGULAR_Q + 1e-3,
        q=REGULAR_Q,
        tcp_speed=0.0,
    )
    given.update(inputs)
    return ctrl.step(i * DT, J=jacobian(MODEL, given["q"]), **given)


def command_fields(cmd):
    return (
        cmd.t,
        cmd.mode,
        cmd.fraction,
        cmd.v_cartesian,
        cmd.source,
        cmd.damped,
        cmd.qdot_cmd.tobytes(),
        cmd.qdot_task.tobytes(),
    )


def settle(ctrl, i):
    """Step from tick i until the command repeats; the next tick's index."""
    for i in range(i, i + 100):
        tick(ctrl, i)
        if ctrl.repeated:
            return i + 1
    pytest.fail("the command never repeated")


def fresh(fraction, scan=occ(), d_i=math.inf, human_speed=0.0):
    """A controller that never stepped, holding the given state."""
    ctrl = Controller(MODEL, LAYOUT, GAINS, Scenario.separation)
    ctrl.fraction = fraction
    ctrl.offer_scan(0.0, scan)
    ctrl.offer_skeleton(0.0, d_i, human_speed)
    return ctrl


def primed(scan=occ(), d_i=math.inf, fraction=1.0):
    """A controller with one scan and one skeleton frame at t = 0 whose
    fraction has settled, so that it repeats its command; and the next tick."""
    ctrl = fresh(fraction, scan, d_i)
    return ctrl, settle(ctrl, 0)


def assert_same_next(ctrl, twin, i, before, **kwargs):
    """The next command of ctrl equals twin's and differs from the one before."""
    cmd = tick(ctrl, i, **kwargs)
    assert not ctrl.repeated
    assert command_fields(cmd) == command_fields(tick(twin, i, **kwargs))
    assert command_fields(cmd)[1:] != command_fields(before)[1:]
    assert ctrl.fraction == twin.fraction
    return cmd


class TestControllerCache:
    def test_scan_replaced_at_the_same_time(self):
        ctrl, i = primed()
        before = tick(ctrl, i)
        ctrl.offer_scan(0.0, occ(left=Zone.DANGER))
        assert_same_next(ctrl, fresh(ctrl.fraction, scan=occ(left=Zone.DANGER)), i + 1, before)

    def test_skeleton_replaced_at_the_same_time(self):
        ctrl, i = primed()
        before = tick(ctrl, i)
        ctrl.offer_skeleton(0.0, 0.4)
        assert_same_next(ctrl, fresh(ctrl.fraction, d_i=0.4), i + 1, before)

    def test_gate_trip(self):
        # Inside the hysteresis band above the dynamic minimum at rest; a fast
        # TCP raises the minimum past the distance, and the gate then holds
        # at rest.  The fraction starts at the skeleton floor.
        d_i = 0.11
        ctrl, i = primed(d_i=d_i, fraction=GAINS.ks_floor)
        before = tick(ctrl, i)
        assert before.mode.kind == ModeKind.REDUCED
        twin = fresh(ctrl.fraction, d_i=d_i)
        tripped = assert_same_next(ctrl, twin, i + 1, before, tcp_speed=0.5)
        assert tripped.mode.kind == ModeKind.STANDSTILL
        held = assert_same_next(ctrl, twin, i + 2, before)
        assert held.mode.kind == ModeKind.STANDSTILL

    def test_skeleton_frame_changing_only_the_human_speed(self):
        # The same distance as the gate test, at rest: a walking human raises
        # the dynamic minimum past it, so the frame trips the gate.
        d_i = 0.11
        ctrl, i = primed(d_i=d_i, fraction=GAINS.ks_floor)
        before = tick(ctrl, i)
        assert before.mode.kind == ModeKind.REDUCED
        ctrl.offer_skeleton(0.0, d_i, 1.6)
        twin = fresh(ctrl.fraction, d_i=d_i, human_speed=1.6)
        tripped = assert_same_next(ctrl, twin, i + 1, before)
        assert tripped.mode.kind == ModeKind.STANDSTILL

    def test_external_fraction_write(self):
        ctrl, i = primed()
        before = tick(ctrl, i)
        ctrl.fraction = 0.25
        assert_same_next(ctrl, fresh(0.25), i + 1, before)

    def test_rewrite_to_the_last_fraction_repeats_its_slew(self):
        ctrl, i = primed()
        ctrl.fraction = 0.5
        first = tick(ctrl, i)
        assert first.fraction == 0.5 + GAINS.accel_limit * DT
        ctrl.fraction = 0.5  # the same key as the last full step
        again = tick(ctrl, i + 1)
        assert ctrl.repeated
        assert command_fields(again)[1:] == command_fields(first)[1:]
        assert ctrl.fraction == first.fraction

    @pytest.mark.parametrize(
        "inputs",
        [
            dict(robot_quadrant=Quadrant.RIGHT),
            dict(task_direction=np.array([0.0, 1.0, 0.0])),
            dict(joint_reference=REGULAR_Q),
            dict(q=REGULAR_Q + 1e-3),
            dict(tcp_speed=2.0),
        ],
        ids=lambda inputs: next(iter(inputs)),
    )
    def test_each_step_input_changed_alone(self, inputs):
        # Danger on the right holds the robot on the left at collaborative
        # speed; the human is beyond the skeleton ramp but within reach of the
        # gate's minimum at a fast TCP.
        scene = dict(scan=occ(right=Zone.DANGER), d_i=0.5)
        ctrl, i = primed(fraction=0.5, **scene)
        before = tick(ctrl, i)
        assert before.mode.kind == ModeKind.COLLABORATIVE
        assert_same_next(ctrl, fresh(ctrl.fraction, **scene), i + 1, before, **inputs)

    def test_messages_that_repeat_their_contents_keep_the_command(self):
        ctrl, i = primed(scan=occ(right=Zone.WARNING), fraction=0.5)
        before = tick(ctrl, i)
        assert before.mode.kind == ModeKind.COLLABORATIVE
        ctrl.offer_scan((i + 1) * DT, occ(right=Zone.WARNING))
        ctrl.offer_skeleton((i + 1) * DT, math.inf)
        again = tick(ctrl, i + 1)
        assert ctrl.repeated
        assert command_fields(again)[1:] == command_fields(before)[1:]

    def test_sequential_frame_with_same_contents_rearbitrates(self):
        # Danger on the left: standstill while the robot is on the left.  The
        # mode is held while it crosses to the right; the next skeleton frame
        # arbitrates again, for the right side, although it repeats the last.
        def controller():
            ctrl = Controller(MODEL, LAYOUT, GAINS, Scenario.separation, sequential=True)
            ctrl.offer_scan(0.0, occ(left=Zone.DANGER))
            ctrl.offer_skeleton(0.0, math.inf)
            return ctrl

        def right(ctrl, i):
            return ctrl.step(
                i * DT,
                robot_quadrant=Quadrant.RIGHT,
                task_direction=np.zeros(3),
                joint_reference=REGULAR_Q,
                q=REGULAR_Q,
                J=jacobian(MODEL, REGULAR_Q),
            )

        ctrl = controller()
        assert tick(ctrl, 0).mode.kind == ModeKind.STANDSTILL
        right(ctrl, 1)
        held = right(ctrl, 2)
        assert ctrl.repeated and held.mode.kind == ModeKind.STANDSTILL
        ctrl.offer_skeleton(3 * DT, math.inf)
        cmd = right(ctrl, 3)
        assert not ctrl.repeated and cmd.mode.kind == ModeKind.COLLABORATIVE
        twin = controller()
        twin.fraction = held.fraction
        assert command_fields(cmd) == command_fields(right(twin, 3))

    def test_repeated_commands_own_their_arrays(self):
        ctrl, i = primed()
        a = tick(ctrl, i)
        a.qdot_cmd[:] = 99.0
        a.qdot_task[:] = 99.0
        b = tick(ctrl, i + 1)
        assert ctrl.repeated
        assert not np.any(b.qdot_cmd == 99.0) and not np.any(b.qdot_task == 99.0)


# -- Spans of repeated ticks ---------------------------------------------------
#
# A tick that repeats the row before it starts a span that engine.run fills in
# one step, up to the first tick whose inputs can differ (_quiet_until).  The
# oracle is the same engine with that helper returning a span of one tick, so
# every tick is evaluated alone.


class Recorder:
    """A bridge that keeps what it is sent."""

    def __init__(self):
        self.records = []

    def publish(self, *record):
        self.records.append(record)


def observed(scenario, monkeypatch, one_tick):
    """Trace lines, events, bridge records, offered messages and step times of a run."""
    offers, steps = [], []
    offer_scan, offer_skeleton, step = (
        Controller.offer_scan,
        Controller.offer_skeleton,
        Controller.step,
    )

    def scan(self, t, occupancy):
        offers.append(("scan", t, occupancy[Quadrant.LEFT], occupancy[Quadrant.RIGHT]))
        return offer_scan(self, t, occupancy)

    def skeleton(self, t, d_i, human_speed=0.0):
        offers.append(("skeleton", t, d_i, human_speed))
        return offer_skeleton(self, t, d_i, human_speed)

    def counted(self, t, **kwargs):
        steps.append(t)
        return step(self, t, **kwargs)

    bridge = Recorder()
    with monkeypatch.context() as m:
        if one_tick:
            m.setattr(engine, "_quiet_until", lambda i, *args: i + 1)
        m.setattr(Controller, "offer_scan", scan)
        m.setattr(Controller, "offer_skeleton", skeleton)
        m.setattr(Controller, "step", counted)
        result = engine.run(scenario, bridge=bridge)
    events = [(e.t, e.kind, e.payload) for e in result.events]
    return list(trace_lines(result.trace)), events, bridge.records, offers, steps


def assert_spans_exact(scenario, monkeypatch):
    """The run equals its tick-by-tick oracle; the number of evaluated ticks of each."""
    *spanned, spanned_steps = observed(scenario, monkeypatch, one_tick=False)
    *oracle, oracle_steps = observed(scenario, monkeypatch, one_tick=True)
    for name, got, want in zip(("trace", "events", "bridge", "offers"), spanned, oracle):
        if got != want:
            k = next((k for k, pair in enumerate(zip(got, want)) if pair[0] != pair[1]), None)
            if k is None:
                pytest.fail(f"{name}: {len(got)} items, the oracle has {len(want)}")
            pytest.fail(f"{name}, item {k}: {got[k]!r}, the oracle has {want[k]!r}")
    assert set(spanned_steps) <= set(oracle_steps)
    return len(spanned_steps), len(oracle_steps)


# The operator the skeleton tracks: walks up and reaches toward the robot's
# side within the skeleton ramp, then stands up in place and stays.  The
# reach starts at 0.5336 s, between the skeleton frame at 16/30 s and the
# next tick (0.534 s), and ends on a tick that no scan or frame falls on.
OPERATOR = HumanScript(
    waypoints=(
        HumanWaypoint(0.0, 1.5, -0.25, Posture.STANDING),
        HumanWaypoint(0.5336, 0.75, -0.25, Posture.REACHING),
        HumanWaypoint(1101 * DT, 0.75, -0.25, Posture.STANDING),
    ),
    footprint_radius=0.2,
)
# A second operator who waits, then walks into the robot's side of the danger
# zone while it dwells at sort_a, so the countdown stalls, and leaves.
STALL = HumanScript(
    waypoints=(
        HumanWaypoint(0.0, 2.0, -0.3, Posture.STANDING),
        HumanWaypoint(0.6, 2.0, -0.3, Posture.STANDING),
        HumanWaypoint(0.85, 0.62, -0.3, Posture.STANDING),
        HumanWaypoint(1.3, 0.62, -0.3, Posture.REACHING),
        HumanWaypoint(1.7, 2.0, -0.2, Posture.STANDING),
    )
)
# sort_a is the start pose; the last step targets the spot the one before
# ends at, so it is reached on the tick that finishes that step.
SPAN_TASK = RobotTask(
    steps=(
        TaskStep("sort_a", (0.35, -0.30, 0.25), 1.5),
        TaskStep("sort_b", (0.20, -0.35, 0.30), 0.25),
        TaskStep("again", (0.20, -0.35, 0.30), 0.0),
    ),
    cycles=2,
)


@pytest.mark.parametrize("noise", [0.0, 0.005])
@pytest.mark.parametrize("sequential", [False, True])
@pytest.mark.parametrize("mode", list(SimMode), ids=lambda m: m.value)
def test_spans_match_tick_by_tick(mode, sequential, noise, monkeypatch):
    scenario = tiny_scenario(
        duration=3.0,
        humans=(OPERATOR, STALL),
        task=SPAN_TASK,
        mode=mode,
        sequential=sequential,
        noise=noise,
        seed=17,
    )
    spanned, oracle = assert_spans_exact(scenario, monkeypatch)
    assert oracle == 1500 and spanned < oracle * 0.9, spanned


# An operator who walks in through the warning zone into the danger zone on
# the right, reaches, crosses the split line to the robot's side leaning,
# and walks out, while the robot dwells at its start pose for the whole run.
# A tick of the walks changes the human columns of the trace and, where a
# skeleton frame reports it, what the controller holds.
WALKER = HumanScript(
    waypoints=(
        HumanWaypoint(0.0, 2.2, 0.3, Posture.STANDING),
        HumanWaypoint(0.8, 0.7, 0.3, Posture.STANDING),
        HumanWaypoint(1.2, 0.7, 0.3, Posture.REACHING),
        HumanWaypoint(1.7, 0.65, -0.3, Posture.LEANING),
        HumanWaypoint(2.6, 2.2, -0.3, Posture.STANDING),
    )
)
STAND_STILL = RobotTask(steps=(TaskStep("sort_a", (0.35, -0.30, 0.25), 4.0),))  # past the run
# The evaluated ticks of each walking run when every walking tick was
# evaluated alone, before spans could run through them.
EVALUATED_WHEN_WALKS_WERE_STEPPED = {
    ("autonomous", False): 1106,
    ("autonomous", True): 1150,
    ("traditional", False): 1206,
    ("traditional", True): 1246,
    ("proposed", False): 1108,
    ("proposed", True): 1150,
}


@pytest.mark.parametrize("sequential", [False, True])
@pytest.mark.parametrize("mode", list(SimMode), ids=lambda m: m.value)
def test_spans_run_through_walks(mode, sequential, monkeypatch):
    scenario = tiny_scenario(
        duration=3.0, humans=(WALKER,), task=STAND_STILL, mode=mode, sequential=sequential
    )
    spanned, oracle = assert_spans_exact(scenario, monkeypatch)
    assert oracle == 1500
    assert spanned < EVALUATED_WHEN_WALKS_WERE_STEPPED[mode.value, sequential], spanned


# An operator who walks up reaching and crosses toward the robot's side
# leaning by 0.5 s, then stands still, while the robot shuttles between two
# targets: blocks of walking ticks and, in the longest run, a block of still
# ones, each under a moving TCP.
BLOCK_WALKER = HumanScript(
    waypoints=(
        HumanWaypoint(0.0, 1.2, 0.3, Posture.STANDING),
        HumanWaypoint(0.3, 0.75, 0.3, Posture.REACHING),
        HumanWaypoint(0.5, 0.7, 0.0, Posture.LEANING),
    )
)
SHUTTLE = RobotTask(
    steps=(
        TaskStep("sort_b", (0.20, -0.35, 0.30), 0.05),
        TaskStep("sort_a", (0.35, -0.30, 0.25), 0.05),
    ),
    cycles=4,
)


@pytest.mark.parametrize("ticks", [255, 256, 257, 513])
def test_output_blocks_match_tick_by_tick(ticks, monkeypatch):
    # The output stage fills the human columns and publishes in blocks of at
    # least engine.LANDMARK_CHUNK rows and once at the end: runs that end
    # just before, at and just after the first block, and one past two.
    scenario = tiny_scenario(duration=ticks * DT, humans=(BLOCK_WALKER,), task=SHUTTLE)
    assert parse_scenario(serialize_scenario(scenario)) == scenario  # the rows are checked
    assert_spans_exact(scenario, monkeypatch)
    bridge = Recorder()
    trace = run(scenario, bridge=bridge).trace
    assert len(trace) == ticks
    columns = ("t", "mode", "fraction", "d_i", "dyn_msd")
    rows = zip(*(trace.values(name) for name in columns))
    want = [(k, t, mode.value, *values) for k, (t, mode, *values) in enumerate(rows)]
    assert bridge.records == want  # ticks 0 ... n - 1, each once, in order
    assert len(set(trace.values("human_x"))) > 200  # the operator walks for 250 ticks


@pytest.mark.parametrize(
    "mode, task",
    [(SimMode.AUTONOMOUS, STAND_STILL), (SimMode.PROPOSED, SPAN_TASK)],
    ids=["autonomous_still", "proposed_moving"],
)
def test_human_columns_and_zone_events_equal_a_tick_by_tick_evaluation(mode, task):
    # What the tick loop computed for each tick before the human side was
    # built ahead of it: the tracked human's state at the row's t, the
    # least landmark distance to the row's TCP, the dynamic minimum at the
    # row's speeds, and each human's footprint zone compared with the tick
    # before.  The autonomous robot dwells for the whole run, so one span
    # holds every walk and zone event to the end of the run.
    scenario = tiny_scenario(duration=3.0, humans=(WALKER, STALL), task=task, mode=mode)
    result = run(scenario)
    trace = result.trace
    tcp, tcp_speed = trace.column("tcp"), trace.values("tcp_speed")
    want, events, zones = [], [], [Zone.NORMAL] * 2
    for k, t in enumerate(trace.values("t")):
        states = [script.state_at(t) for script in scenario.humans]
        for h, state in enumerate(states):
            zone = classify_footprint(result.layout, state.ground, state.footprint_radius).zone
            kind = EventKind.ZONE_ENTER if zone > zones[h] else EventKind.ZONE_EXIT
            levels = range(zones[h] + 1, zone + 1) if zone > zones[h] else range(zones[h], zone, -1)
            events += [(t, kind, f"zone={Zone(z).name.lower()};human={h}") for z in levels]
            zones[h] = zone
        d_i = float(np.min(np.linalg.norm(pose_landmarks(states[0]) - tcp[k], axis=1)))
        speed = states[0].walk_speed
        dyn_msd = msd_at_speeds(scenario.separation, speed, tcp_speed[k])
        want.append((*states[0].ground.tolist(), speed, d_i, dyn_msd))
    got = np.column_stack([trace.column(name) for name in engine._HUMAN_COLUMNS])
    assert got.tobytes() == np.array(want).tobytes()
    zone_kinds = (EventKind.ZONE_ENTER, EventKind.ZONE_EXIT)
    assert [(e.t, e.kind, e.payload) for e in result.events if e.kind in zone_kinds] == events
    assert len(events) >= 8


@pytest.mark.parametrize("name", ["approach_noisy", "parked_dwelling"])
def test_each_rows_distance_is_the_reduction_of_its_own_landmarks(name):
    # The output stage measures only the head row of each run of rows whose
    # human stays in one still piece and whose tcp bits repeat, and repeats
    # its value; every row must hold its own per-tick reduction.  The tiny
    # scenario's operator is parked and its robot dwells at both targets.
    if name == "approach_noisy":
        scenario = dataclasses.replace(bundled("approach_retreat"), noise=0.005, seed=17)
    else:
        scenario = tiny_scenario(duration=4.0)
    trace = run(scenario).trace
    track = scenario.humans[0].track(np.arange(len(trace)) * DT)
    tcp = trace.column("tcp")
    want = [
        np.min(np.linalg.norm(track.landmarks(k, k + 1)[0] - tcp[k], axis=1))
        for k in range(len(trace))
    ]
    assert trace.column("d_i").view(np.int64).tolist() == np.array(want).view(np.int64).tolist()
    piece = track.piece
    same_tcp = (tcp[1:].view(np.int64) == tcp[:-1].view(np.int64)).all(axis=1)
    repeated = (piece[1:] == piece[:-1]) & track.still[piece[1:]] & same_tcp
    assert 0 < np.count_nonzero(repeated) < len(trace) - 1  # runs, and heads after the first


# A walk while standing, a reach held at one spot, a lean walked and then held,
# and a reach held to the end: moving and still pieces of both bent postures.
BENDING = HumanScript(
    waypoints=(
        HumanWaypoint(0.0, 1.4, 0.4, Posture.STANDING),
        HumanWaypoint(0.5, 0.9, 0.3, Posture.REACHING),
        HumanWaypoint(1.0, 0.9, 0.3, Posture.LEANING),
        HumanWaypoint(1.6, 0.8, -0.2, Posture.LEANING),
        HumanWaypoint(2.2, 0.8, -0.2, Posture.REACHING),
    )
)


def test_tick_set_landmarks_equal_each_ticks_own():
    times = np.arange(1300) * DT
    track = BENDING.track(times)
    pieces = [(POSTURES[track.posture[p]], bool(track.still[p])) for p in set(track.piece.tolist())]
    for posture in (Posture.REACHING, Posture.LEANING):
        assert (posture, True) in pieces
    assert (Posture.LEANING, False) in pieces
    rng = np.random.default_rng(4)
    for ticks in (
        np.arange(len(times)),
        np.sort(rng.choice(len(times), 200, replace=False)),
        np.array([600, 3, 1299, 3]),  # any order, and a tick twice
        np.array([1299]),
        np.arange(300, 500),  # walking only
    ):
        want = np.concatenate([track.landmarks(k, k + 1) for k in ticks.tolist()])
        assert track.landmarks_at(ticks).tobytes() == want.tobytes()


def test_script_that_starts_late_holds_still_until_it_starts(monkeypatch):
    # STALL without its first waypoint starts at 0.6 s and stands where STALL
    # stands until then, so it gives STALL's run, with the same ticks evaluated.
    late = HumanScript(waypoints=STALL.waypoints[1:])
    stall, late = (
        tiny_scenario(duration=3.0, humans=(OPERATOR, h), task=SPAN_TASK, seed=17)
        for h in (STALL, late)
    )
    assert_spans_exact(late, monkeypatch)
    assert observed(late, monkeypatch, False) == observed(stall, monkeypatch, False)


def test_stall_during_a_dwell_delays_the_step():
    # The case the span cases above cover: the 1.5 s dwell at sort_a, which
    # starts at tick 0, stops counting while the operator in the robot's
    # danger zone holds the fraction at 0, and resumes after.
    scenario = tiny_scenario(duration=3.0, humans=(OPERATOR, STALL), task=SPAN_TASK)
    result = engine.run(scenario)
    done = next(e.t for e in result.events if e.payload == "step=sort_a;cycle=0")
    t = result.trace.column("t")
    stalled = int(np.count_nonzero((result.trace.column("fraction") == 0.0) & (t < done)))
    assert stalled > 100
    assert done == pytest.approx(1.5 - DT + stalled * DT, abs=2 * DT)


TARGETS = ((0.35, -0.30, 0.25), (0.20, -0.35, 0.30), (0.45, -0.28, 0.35))


@st.composite
def span_scenarios(draw, duration=2.5, min_humans=0):
    steps = draw(
        st.lists(
            st.builds(
                TaskStep,
                name=st.just("step"),
                target=st.sampled_from(TARGETS),
                dwell=st.sampled_from((0.0, 0.037, 0.25, 0.6)),
            ),
            min_size=1,
            max_size=3,
        )
    )
    return tiny_scenario(
        duration=duration,
        humans=tuple(draw(st.lists(human_scripts(duration), min_size=min_humans, max_size=2))),
        task=RobotTask(steps=tuple(steps), cycles=draw(st.integers(1, 2))),
        mode=draw(st.sampled_from(SimMode)),
        sequential=draw(st.booleans()),
        noise=draw(st.sampled_from((0.0, 0.005))),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@settings(
    derandomize=True,
    database=None,
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(scenario=span_scenarios())
def test_generated_spans_match_tick_by_tick(scenario, monkeypatch):
    assert_spans_exact(scenario, monkeypatch)


# A human parked beyond the scanners' 5.5 m range, where no ray reaches.
FAR_HUMAN = HumanScript(waypoints=(HumanWaypoint(0.0, 40.0, 40.0, Posture.STANDING),))


@pytest.mark.parametrize("mode", SimMode, ids=lambda mode: mode.value)
@settings(derandomize=True, database=None, max_examples=8, deadline=None)
@given(
    scenario=st.sampled_from((1.0, 1.25, 1.5)).flatmap(
        lambda duration: span_scenarios(duration, min_humans=1)
    )
)
def test_a_far_human_after_the_tracked_one_changes_no_byte(mode, scenario):
    # A metamorphic relation (ROADMAP item 11): no scan sees the far human, and
    # only the first human is tracked, so neither its data nor its index may
    # reach the trace or the events.
    scenario = scenario.with_mode(mode)
    with_far = dataclasses.replace(scenario, humans=(*scenario.humans, FAR_HUMAN))
    runs = [run(sc) for sc in (scenario, with_far)]
    lines = [hashlib.sha256("".join(trace_lines(r.trace)).encode()).digest() for r in runs]
    assert lines[0] == lines[1]
    assert runs[0].events == runs[1].events


# An operator who stands still from the start until 30 scan periods, with the
# first waypoint at 10 periods and a posture switch at 20, then walks to
# x = 0.6 by 50 periods and stays.  Scans and skeleton frames on those
# waypoint times see the spot the message before saw.
STILL_THEN_WALK = HumanScript(
    waypoints=(
        HumanWaypoint(10 * SCAN_PERIOD, 1.0, 0.3, Posture.STANDING),
        HumanWaypoint(20 * SCAN_PERIOD, 1.0, 0.3, Posture.REACHING),
        HumanWaypoint(30 * SCAN_PERIOD, 1.0, 0.3, Posture.STANDING),
        HumanWaypoint(50 * SCAN_PERIOD, 0.6, 0.3, Posture.STANDING),
    )
)


@pytest.mark.parametrize(
    "noise, scans",
    [(0.0, [0, *range(31, 51)]), (0.005, range(67))],
    ids=["noiseless", "noisy"],
)
def test_scan_at_the_start_of_a_hold_is_cast_only_with_noise(noise, scans, monkeypatch):
    # Without noise a scan is cast when some human's x or y differs from the
    # scan before: the first, and each while the operator walks up to where
    # it stops.  With noise each scan draws its own, so every one of ticks
    # 0 ... 1.998 s is cast.
    cast = []
    simulate = perception.simulate_scan

    def recorded(*args, **kwargs):
        scan = simulate(*args, **kwargs)
        cast.extend(scan.t.tolist())
        return scan

    monkeypatch.setattr(perception, "simulate_scan", recorded)
    scenario = tiny_scenario(
        duration=2.0, humans=(STILL_THEN_WALK,), task=STAND_STILL, noise=noise, seed=17
    )
    engine.run(scenario)
    assert cast == [j * SCAN_PERIOD for j in scans]


def test_skeleton_frames_equal_the_scalar_reference(monkeypatch):
    # Each offered frame against state_at at the frame time: the least
    # landmark distance of its pose to the TCP of the tick it is offered at,
    # and its walk speed.  The robot shuttles while the operator walks in,
    # reaches, leans and stands.
    offers = []
    offer = Controller.offer_skeleton

    def recorded(self, t, d_i, human_speed=0.0):
        offers.append((t, d_i, human_speed))
        return offer(self, t, d_i, human_speed)

    monkeypatch.setattr(Controller, "offer_skeleton", recorded)
    scenario = tiny_scenario(duration=1.0, humans=(BLOCK_WALKER,), task=SHUTTLE)
    trace = engine.run(scenario).trace
    times, starts = engine._sensor_grid(trace.column("t"), 1.0 / perception.SKELETON_RATE)
    assert [t for t, _, _ in offers] == times
    tcp = trace.column("tcp")
    assert len({tcp[k].tobytes() for k in starts[:-1]}) >= 20  # the TCP moves
    want = []
    for t, k in zip(times, starts):
        state = BLOCK_WALKER.state_at(t)
        d_i = float(np.min(np.linalg.norm(pose_landmarks(state) - tcp[k], axis=1)))
        want.append((t, d_i, state.walk_speed))
    assert offers == want


def test_still_operator_facing_a_still_tcp_is_measured_once_per_still_piece(monkeypatch):
    # The robot dwells at its start pose, so the TCP stays one object; the
    # operator stands at one spot through four still pieces (before the first
    # waypoint and between each two), each of another posture than the last.
    script = HumanScript(waypoints=STILL_THEN_WALK.waypoints[:3])
    measured = []
    least = engine._least_distance

    def recorded(landmarks, tcp):
        if tcp.ndim == 1:  # a skeleton frame's; the output stage passes blocks
            measured.append(landmarks.tobytes())
        return least(landmarks, tcp)

    monkeypatch.setattr(engine, "_least_distance", recorded)
    result = engine.run(tiny_scenario(duration=2.0, humans=(script,), task=STAND_STILL))
    assert len(set(result.trace.values("tcp_speed"))) == 1  # the TCP never moves
    track = script.track(np.array([0.0, 10 * SCAN_PERIOD, 20 * SCAN_PERIOD, 30 * SCAN_PERIOD]))
    assert measured == [track.landmarks(k, k + 1).tobytes() for k in range(4)]
