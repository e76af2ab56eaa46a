"""Acceptance suite: one test per release criterion, each with its runtime budget.

Heavy simulation results are computed once and shared; the first criterion that
needs a result pays for it inside its own budget.
"""

import dataclasses
import socket
import time

import numpy as np
import pytest

from helpers import finite_difference_jacobian, oracle_rect_member
from ssmcell.bridge import serve
from ssmcell.control import Gains, ModeKind
from ssmcell.engine import EventKind, detect_deadlock, ideal_cycle_time, run
from ssmcell.kinematics import RobotModel, jacobian, null_space_projector, pseudo_inverse
from ssmcell.kpi import reaction_time, report
from ssmcell.scenario import SimMode, parse_scenario
from ssmcell.scenarios import bundled_scenario_path
from ssmcell.separation import SeparationInputs, compute_msd_dynamic, separation_terms
from ssmcell.stability import LyapunovSample, check_segment, evaluate_trace, lyapunov_value
from ssmcell.tracefile import trace_lines
from ssmcell.zones import SafetyParams, build_zone_layout, classify_point, compute_msd_static

_CACHE = {}


def approach_scenario():
    return parse_scenario(str(bundled_scenario_path("approach_retreat")))


def benchmark_scenario():
    return parse_scenario(str(bundled_scenario_path("sorting_benchmark")))


def approach_result():
    if "approach" not in _CACHE:
        _CACHE["approach"] = run(approach_scenario())
    return _CACHE["approach"]


def benchmark_results():
    if "benchmark" not in _CACHE:
        scenario = benchmark_scenario()
        out = {}
        for mode in (SimMode.AUTONOMOUS, SimMode.TRADITIONAL, SimMode.PROPOSED):
            result = run(scenario.with_mode(mode))
            result.events.extend(
                detect_deadlock(result.trace, result.events, scenario.stall_threshold)
            )
            out[mode] = result
        _CACHE["benchmark"] = out
    return _CACHE["benchmark"]


def sequential_result():
    if "sequential" not in _CACHE:
        scenario = dataclasses.replace(
            benchmark_scenario().with_mode(SimMode.PROPOSED), sequential=True
        )
        result = run(scenario)
        result.events.extend(detect_deadlock(result.trace, result.events, scenario.stall_threshold))
        _CACHE["sequential"] = result
    return _CACHE["sequential"]


def bundled_results():
    return [approach_result()] + list(benchmark_results().values())


def plateaus(trace, min_duration=0.8):
    out = []
    value, start = trace[0].fraction, trace[0].t
    for r in trace[1:]:
        if r.fraction != value:
            if r.t - start >= min_duration:
                out.append((value, start, r.t))
            value, start = r.fraction, r.t
    if trace[-1].t - start >= min_duration:
        out.append((value, start, trace[-1].t))
    return out


def test_criterion_1_separation_formulas_exact():
    t0 = time.monotonic()
    static = SafetyParams(1.6, 0.5, 0.85, 0.1)
    assert compute_msd_static(static) == 1.6 * 0.5 + 0.85 + 0.1
    assert abs(compute_msd_static(static) - 1.75) < 1e-12
    assert compute_msd_static(SafetyParams(0, 0, 0, 0)) == 0.0
    second = SafetyParams(1.6, 0.2, 0.0, 0.05)
    assert compute_msd_static(second) == 1.6 * 0.2 + 0.0 + 0.05
    assert abs(compute_msd_static(second) - 0.37) < 1e-12

    inputs = SeparationInputs(
        human_speed=1.6,
        robot_speed=1.0,
        robot_reaction_time=0.1,
        perception_response_time=0.064,
        intrusion=0.2,
        robot_uncertainty=0.05,
        human_uncertainty=0.05,
    )
    s_h, s_r, s_s = separation_terms(inputs)
    assert s_h == 1.6 * (0.1 + 0.064)
    assert s_r == 1.0 * 0.1
    assert s_s == 1.0 * (0.1 + 0.064)
    assert abs(s_h - 0.2624) < 1e-12 and abs(s_r - 0.1) < 1e-12 and abs(s_s - 0.164) < 1e-12
    total = compute_msd_dynamic(inputs)
    assert total == s_h + s_r + s_s + 0.2 + 0.05 + 0.05
    assert abs(total - 0.8264) < 1e-12
    zero = SeparationInputs(0, 0, 0, 0, 0, 0, 0)
    assert compute_msd_dynamic(zero) == 0.0
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1: PASS - separation formulas exact ({elapsed:.2f}s)")


def test_criterion_2_zone_classification_oracle():
    t0 = time.monotonic()
    layout = build_zone_layout(0.5, 1.5, 0.9, 0.425)
    rng = np.random.default_rng(2024)
    points = rng.uniform([-0.5, -1.0, -0.5], [2.5, 1.0, 2.5], size=(10_000, 3))
    mismatches = sum(
        1
        for p in points
        if classify_point(layout, p).zone != oracle_rect_member(layout, p[0], p[1], p[2])
    )
    assert mismatches == 0
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 2: PASS - 10000/10000 zone labels match brute force ({elapsed:.2f}s)")


def test_criterion_3_jacobian_and_matrix_identities():
    t0 = time.monotonic()
    model = RobotModel()
    rng = np.random.default_rng(77)
    worst_fd = 0.0
    for _ in range(100):
        q = rng.uniform(-3.0, 3.0, 6)
        J = jacobian(model, q).matrix
        worst_fd = max(worst_fd, float(np.max(np.abs(J - finite_difference_jacobian(model, q)))))
    assert worst_fd < 1e-6

    worst_mp = 0.0
    worst_proj = 0.0
    for _ in range(50):
        M = rng.normal(size=(6, 6))
        Mp = pseudo_inverse(M)
        worst_mp = max(
            worst_mp,
            float(np.max(np.abs(M @ Mp @ M - M))),
            float(np.max(np.abs(Mp @ M @ Mp - Mp))),
            float(np.max(np.abs((M @ Mp).T - M @ Mp))),
            float(np.max(np.abs((Mp @ M).T - Mp @ M))),
        )
        low = rng.normal(size=(6, 3)) @ rng.normal(size=(3, 6))
        N = null_space_projector(low)
        worst_proj = max(
            worst_proj,
            float(np.max(np.abs(low @ N))),
            float(np.max(np.abs(N @ N - N))),
        )
    assert worst_mp < 1e-9
    assert worst_proj < 1e-9
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    print(
        f"\nACCEPTANCE 3: PASS - FD error {worst_fd:.2e}, identity residuals "
        f"{max(worst_mp, worst_proj):.2e} ({elapsed:.2f}s)"
    )


def test_criterion_4_velocity_staircase():
    t0 = time.monotonic()
    result = approach_result()
    scenario = result.scenario
    dt = scenario.control_period
    accel = scenario.gains_config.accel_limit

    levels = plateaus(result.trace)
    values = [v for v, _, _ in levels]
    assert values[0] == 1.0 and values[1] == 0.5
    assert 0.0 < values[2] <= 0.3
    assert values[3] == 0.0
    assert values[4] == 0.5 and values[5] == 1.0  # recovery along the reverse sequence

    # slew-limited ramps: duration = |delta fraction| / accel_limit, +- one tick
    for (v1, _, end1), (v2, start2, _) in zip(levels, levels[1:]):
        ramp = start2 - end1
        expected = abs(v2 - v1) / accel
        assert abs(ramp - expected) <= dt + 1e-9, (v1, v2, ramp, expected)
    # per-tick slew bound everywhere
    for a, b in zip(result.trace, result.trace[1:]):
        assert abs(b.fraction - a.fraction) <= accel * dt + 1e-12

    wanted = [
        (EventKind.ZONE_ENTER, "warning"),
        (EventKind.MODE_SWITCH, "collaborative"),
        (EventKind.MODE_SWITCH, "reduced"),
        (EventKind.ZONE_ENTER, "danger"),
        (EventKind.MODE_SWITCH, "standstill"),
        (EventKind.ZONE_EXIT, "danger"),
        (EventKind.MODE_SWITCH, "collaborative"),
        (EventKind.ZONE_EXIT, "warning"),
        (EventKind.MODE_SWITCH, "full"),
    ]
    it = iter(result.events)
    for kind, token in wanted:
        for e in it:
            if e.kind == kind and token in e.payload:
                break
        else:
            pytest.fail(f"event sequence missing {kind.value} {token}")
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(
        f"\nACCEPTANCE 4: PASS - staircase {[v for v, _, _ in levels]} with slew ramps "
        f"({elapsed:.2f}s)"
    )


def test_criterion_5_safety_invariant_all_scenarios():
    t0 = time.monotonic()
    total_rows = 0
    violations = 0
    for result in bundled_results():
        for row in result.trace:
            total_rows += 1
            if row.v_task > 0 and row.d_i < row.dyn_msd:
                violations += 1
    assert violations == 0
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(
        f"\nACCEPTANCE 5: PASS - 0 violations across {total_rows} rows of "
        f"{len(bundled_results())} runs ({elapsed:.2f}s)"
    )


def test_criterion_6_lyapunov_suite():
    t0 = time.monotonic()
    for result in bundled_results():
        samples = result.lyapunov_samples()
        assert all(s.value >= 0.0 for s in samples)
        report_ = evaluate_trace(samples)
        assert report_.all_converged

    # desk-scale closed loop runs through the same monitor with nontrivial energy
    gains = Gains.diagonal(kp=20.0, kd=2.0)
    e = np.full(6, 0.4)
    desk = []
    for i in range(1500):
        u = gains.kp[0, 0] / (1.0 + gains.kd[0, 0]) * e
        desk.append(
            LyapunovSample(t=i * 0.002, value=lyapunov_value(e, -u, gains), mode=ModeKind.FULL)
        )
        e = e - u * 0.002
    desk_report = evaluate_trace(desk)
    assert desk_report.all_converged
    assert desk[0].value > desk[-1].value

    # negative control: an injected energy rise must be flagged
    doctored = [
        LyapunovSample(t=s.t, value=(0.5 if i == 700 else s.value), mode=s.mode)
        for i, s in enumerate(desk)
    ]
    eps = 1e-9 * max(s.value for s in doctored)
    verdict = check_segment(doctored, eps)
    assert not verdict.converged
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 6: PASS - energy nonnegative, per-segment decay, "
          f"negative control flagged ({elapsed:.2f}s)")


def test_criterion_7_directional_benchmark():
    t0 = time.monotonic()
    results = benchmark_results()
    ideal = ideal_cycle_time(benchmark_scenario())
    reports = {mode: report(result, ideal_cycle=ideal) for mode, result in results.items()}

    ct_auto = reports[SimMode.AUTONOMOUS].cycle_time
    ct_trad = reports[SimMode.TRADITIONAL].cycle_time
    ct_prop = reports[SimMode.PROPOSED].cycle_time
    assert ct_auto > ct_trad > ct_prop
    assert ct_prop <= 0.8 * ct_trad

    assert reports[SimMode.PROPOSED].flexibility_rate > reports[SimMode.TRADITIONAL].flexibility_rate
    assert reports[SimMode.PROPOSED].oee > reports[SimMode.TRADITIONAL].oee

    # intrusions never reach the autonomous controller: the metric stays undefined
    assert reports[SimMode.AUTONOMOUS].reaction_time is None

    rt_prop = reports[SimMode.PROPOSED].reaction_time
    assert rt_prop is not None and rt_prop <= 0.032

    seq = sequential_result()
    rt_seq = reaction_time(seq.trace, seq.events)
    assert rt_seq is not None
    assert rt_prop < rt_seq
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(
        f"\nACCEPTANCE 7: PASS - cycle {ct_auto:.1f} > {ct_trad:.1f} > {ct_prop:.1f}s "
        f"({100 * (1 - ct_prop / ct_trad):.0f}% below traditional), "
        f"rt {rt_prop * 1000:.1f}ms < sequential {rt_seq * 1000:.1f}ms ({elapsed:.2f}s)"
    )


def test_criterion_8_determinism():
    t0 = time.monotonic()
    scenario = approach_scenario()
    first = "\n".join(trace_lines(run(scenario).trace))
    second = "\n".join(trace_lines(run(scenario).trace))
    assert first == second

    bridge = serve(decimation=10)
    try:
        client = socket.create_connection(bridge.address, timeout=5.0)
        bridged = "\n".join(trace_lines(run(scenario, bridge=bridge).trace))
    finally:
        bridge.close()
    client.close()
    assert bridged == first
    elapsed = time.monotonic() - t0
    assert elapsed < 20.0
    print(f"\nACCEPTANCE 8: PASS - bit-identical traces, bridge-neutral ({elapsed:.2f}s)")


def test_criterion_9_bridge_protocol():
    t0 = time.monotonic()
    scenario = dataclasses.replace(approach_scenario(), duration=2.0, humans=())

    def capture(sock, timeout=6.0):
        sock.settimeout(timeout)
        buf = []
        try:
            while True:
                data = sock.recv(65536)
                if not data:
                    break
                buf.append(data)
        except socket.timeout:
            pass
        return b"".join(buf)

    bridge = serve(decimation=5)
    early = socket.create_connection(bridge.address, timeout=5.0)
    deadline = time.monotonic() + 5
    while bridge.client_count() < 1 and time.monotonic() < deadline:
        time.sleep(0.005)
    # the late client joins mid-run, at the first quarter of the ticks
    join_tick = round(scenario.duration / scenario.control_period) // 4
    publish = bridge.publish
    joined = []

    def publish_joining_late(seq, *record):
        if seq == join_tick:
            joined.append(socket.create_connection(bridge.address, timeout=5.0))
            deadline = time.monotonic() + 5
            while bridge.client_count() < 2 and time.monotonic() < deadline:
                time.sleep(0.005)
            assert bridge.client_count() == 2
        publish(seq, *record)

    bridge.publish = publish_joining_late
    run(scenario, bridge=bridge)
    bridge.close()
    (late,) = joined
    stream_early = capture(early).decode().splitlines()
    stream_late = capture(late).decode().splitlines()
    early.close()
    late.close()
    assert stream_early and stream_late
    # identical modulo the join point, with nothing from before it replayed
    join_seq = stream_late[0].split()[0]
    idx = next(i for i, l in enumerate(stream_early) if l.split()[0] == join_seq)
    assert idx > 0
    assert stream_early[idx:] == stream_late

    # slow client: never reads, small buffer; the simulation trace is unharmed
    slow_bridge = serve(decimation=1, client_buffer=16)
    slow = socket.create_connection(slow_bridge.address, timeout=5.0)
    deadline = time.monotonic() + 5
    while slow_bridge.client_count() < 1 and time.monotonic() < deadline:
        time.sleep(0.005)
    with_slow = run(scenario, bridge=slow_bridge)
    slow_bridge.close()
    slow.close()
    assert slow_bridge.dropped_clients >= 1
    plain = run(scenario)
    assert "\n".join(trace_lines(with_slow.trace)) == "\n".join(trace_lines(plain.trace))
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 9: PASS - dual-client streams match, slow client dropped "
          f"without trace impact ({elapsed:.2f}s)")
