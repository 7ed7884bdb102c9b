"""Independent reference implementations the test suite checks the library against.

Everything here is computed from first principles — quadratic brute force,
exhaustive enumeration, dense sampling, finite differences — rather than by
calling into the library, so agreement is evidence and not tautology.
"""

import functools
import itertools
import math
from fractions import Fraction

import numpy as np

from beamtrack import world as sim  # the simulator's constants only


def dbscan_reference(points: np.ndarray, eps: float, min_pts: int):
    """Quadratic-time density clustering over the 3-D coordinates.

    Full n x n distance matrix, then textbook sequential region growing:
    scan points in index order, grow a cluster from each unvisited core point,
    give border points to the first cluster that reaches them. Returns an (n,)
    label array (-1 noise) and the cluster count.
    """
    pts = np.asarray(points, dtype=float)[:, :3]
    n = len(pts)
    if n == 0:
        return np.empty(0, dtype=int), 0
    diff = pts[:, None, :] - pts[None, :, :]
    with np.errstate(over="ignore"):  # a square beyond the float range is inf, so > eps
        adjacent = np.sqrt((diff * diff).sum(axis=2)) <= eps
    is_core = adjacent.sum(axis=1) >= min_pts  # a point is its own neighbor
    labels = np.full(n, -2, dtype=int)
    n_clusters = 0
    for i in range(n):
        if labels[i] != -2:
            continue
        if not is_core[i]:
            labels[i] = -1
            continue
        label = n_clusters
        n_clusters += 1
        labels[i] = label
        frontier = [i]
        while frontier:
            j = frontier.pop(0)
            if not is_core[j]:
                continue
            for q in np.flatnonzero(adjacent[j]):
                if labels[q] == -2:
                    labels[q] = label
                    frontier.append(q)
                elif labels[q] == -1:
                    labels[q] = label
    return labels, n_clusters


def matching_reference(prev_cores: np.ndarray, curr_cores: np.ndarray):
    """Exhaustive min-cost injective matching between two sets of 2-D points.

    assignment_reference on the Euclidean distances, prev cores as rows: the
    least exact sum of distances, ties to the lexicographically smallest
    sorted (row, col) pair list, and the cost as those distances folded in
    sorted order — the order the library reports, so the cost compares bit for
    bit. Returns (pairs, cost).
    """
    prev_cores = np.asarray(prev_cores, dtype=float)
    curr_cores = np.asarray(curr_cores, dtype=float)
    if min(len(prev_cores), len(curr_cores)) == 0:
        return [], 0.0
    diff = prev_cores[:, None, :] - curr_cores[None, :, :]
    return assignment_reference(np.sqrt((diff * diff).sum(axis=2)))


def _exact_entries(cost):
    """The entries of a cost matrix as exact integers on one scale, None for inf, and the scale.

    Each finite float is a fractions.Fraction whose denominator is a power of
    two, so multiplying all of them by the largest such denominator leaves
    integers whose sums compare as the real sums of the entries do.
    """
    exact = [[None if math.isinf(x) else Fraction(x) for x in row] for row in cost.tolist()]
    scale = max((x.denominator for row in exact for x in row if x is not None), default=1)
    return [[None if x is None else int(x * scale) for x in row] for row in exact], scale


def assignment_reference(cost):
    """Exhaustive least-cost assignment of min(rows, cols) pairs of a cost matrix.

    Enumerates every choice of rows and every injective choice of columns for
    them, sums the entries exactly (_exact_entries), and keeps the least sum,
    ties going to the lexicographically smallest sorted (row, col) pair list.
    An inf entry forbids its pair. Returns (pairs, cost), cost being the
    chosen entries folded 0.0 + ... in sorted order, or ([], inf) when no
    assignment has a finite sum or when that fold overflows.
    """
    cost = np.asarray(cost, dtype=float)
    n, m = cost.shape
    k = min(n, m)
    if k == 0:
        return [], 0.0
    grid, _ = _exact_entries(cost)
    best_pairs = None
    best_sum = None
    for rows in itertools.combinations(range(n), k):
        for cols in itertools.permutations(range(m), k):
            pairs = sorted(zip(rows, cols))
            terms = [grid[r][c] for r, c in pairs]
            if None in terms:
                continue
            exact = sum(terms)
            if best_sum is None or exact < best_sum or (exact == best_sum and pairs < best_pairs):
                best_sum = exact
                best_pairs = pairs
    if best_pairs is None:
        return [], math.inf
    total = 0.0
    for r, c in best_pairs:
        total += float(cost[r, c])
    return (best_pairs, total) if total < math.inf else ([], math.inf)


def subset_assignment_reference(cost):
    """Least exact-sum assignment, lexicographic ties, by dynamic programming over column sets.

    best(r, used) is the least exact sum (_exact_entries) with which rows r,
    r + 1, ... place the pairs still owed on finite entries outside the
    column bitmask used, each row taking one free column or, while enough
    rows remain, none. Taking the rows in order, each to the lowest column (no
    column last) that keeps best at its optimum, gives the lexicographically
    smallest optimal pair list. Exponential in the column count, so for up to
    about 16 columns. Returns (pairs, exact sum as a fractions.Fraction), or
    ([], None) when no assignment has a finite sum.
    """
    cost = np.asarray(cost, dtype=float)
    n, m = cost.shape
    k = min(n, m)
    grid, scale = _exact_entries(cost)

    @functools.lru_cache(maxsize=None)
    def best(r, used):
        owed = k - bin(used).count("1")
        if owed == 0:
            return 0
        sums = [best(r + 1, used)] if n - r > owed else []  # row r unused
        for c, x in enumerate(grid[r]):
            if x is not None and not used >> c & 1 and (rest := best(r + 1, used | 1 << c)) is not None:
                sums.append(x + rest)
        return min((s for s in sums if s is not None), default=None)

    if best(0, 0) is None:
        return [], None
    pairs, used, fixed = [], 0, 0
    for r in range(n):
        if len(pairs) == k:
            break
        want = best(r, used)
        for c, x in enumerate(grid[r]):
            if x is not None and not used >> c & 1 and best(r + 1, used | 1 << c) == want - x:
                pairs.append((r, c))
                used |= 1 << c
                fixed += x
                break
    return pairs, Fraction(fixed, scale)


def integer_assignment_reference(cost):
    """Least-cost assignment, lexicographic ties, of finite integer costs by sequential fixing.

    Takes the rows in order and gives each the lowest column (or, with more
    rows than columns, no column, after every column) that keeps the whole
    sum at the optimum, each test one scipy linear_sum_assignment solve of
    the rows and columns left. Sums of integers below 2**53 are exact in
    float64, so this is the rule of lex_min_assignment (least exact sum,
    lexicographic ties) for such costs. Returns (pairs, cost).
    """
    from scipy.optimize import linear_sum_assignment

    cost = np.asarray(cost, dtype=float)
    n, m = cost.shape

    def least(rows, cols):
        if not rows or not cols:
            return 0.0
        sub = cost[np.ix_(rows, cols)]
        r, c = linear_sum_assignment(sub)
        return float(sub[r, c].sum())

    target = least(list(range(n)), list(range(m)))
    pairs, fixed, cols = [], 0.0, list(range(m))
    for r in range(n):
        left = min(n, m) - len(pairs)  # pairs still to place, this row's included
        if not left:
            break
        after = list(range(r + 1, n))
        for c in cols:
            rest = [x for x in cols if x != c]
            if fixed + cost[r, c] + least(after, rest) == target:
                pairs.append((r, c))
                fixed += cost[r, c]
                cols = rest
                break
        # otherwise row r goes unused, which the optimum then allows
    return pairs, fixed


def components_reference(n, edges):
    """The least node of each node's connected component, by breadth-first search."""
    adjacent = [[] for _ in range(n)]
    for a, b in edges:
        adjacent[a].append(b)
        adjacent[b].append(a)
    least = [-1] * n
    for start in range(n):  # ascending, so each search starts at its component's least node
        if least[start] >= 0:
            continue
        least[start] = start
        queue = [start]
        for node in queue:
            for other in adjacent[node]:
                if least[other] < 0:
                    least[other] = start
                    queue.append(other)
    return least


def identification_reference(cluster_velocities, client_velocities):
    """Exhaustive search over sequences of distinct cluster labels, one per client.

    Scans the label sequences in lexicographic order of ascending labels and
    keeps the first with the least exact sum (as fractions.Fraction values) of
    ||v_label(0) - client 0||, ||v_label(1) - client 1||, ..., so ties go to
    the lexicographically lowest sequence. Returns None when no sequence has a
    finite cost, or when the chosen terms folded in client order overflow.
    """
    entries = sorted((label, np.asarray(v, dtype=float)) for label, v in cluster_velocities)
    clients = [np.asarray(v, dtype=float) for v in client_velocities]
    best_labels = None
    best_cost = None
    for chosen in itertools.permutations(entries, len(clients)):
        terms = [float(np.linalg.norm(vel - client)) for (_, vel), client in zip(chosen, clients)]
        if any(math.isinf(t) for t in terms):
            continue
        cost = sum(map(Fraction, terms))
        if best_cost is None or cost < best_cost:
            best_cost, best_terms = cost, terms
            best_labels = tuple(label for label, _ in chosen)
    if best_labels is None or functools.reduce(float.__add__, best_terms, 0.0) == math.inf:
        return None
    return best_labels


def interp_accel(break_t: np.ndarray, break_a: np.ndarray, t: float) -> np.ndarray:
    """Evaluate a piecewise-linear acceleration profile at time t (per axis)."""
    return np.array([np.interp(t, break_t, break_a[:, i]) for i in range(break_a.shape[1])])


def closed_form_velocity(
    break_t: np.ndarray, break_a: np.ndarray, v0: np.ndarray, t_end: float
) -> np.ndarray:
    """Analytic integral of a piecewise-linear acceleration profile.

    Each linear segment [t_i, t_{i+1}] contributes (a_i + a_{i+1}) / 2 * dt
    exactly; the final partial segment is clipped at t_end with the endpoint
    value interpolated analytically.
    """
    v = np.asarray(v0, dtype=float).copy()
    for i in range(len(break_t) - 1):
        t0, t1 = break_t[i], break_t[i + 1]
        if t0 >= t_end:
            break
        hi = min(t1, t_end)
        a0 = break_a[i]
        a1 = interp_accel(break_t, break_a, hi)
        v = v + (hi - t0) * (a0 + a1) / 2.0
    return v


def kalman_step_reference(x, P, z, dt, sigma_accel, sigma_meas):
    """One constant-velocity predict + update in plain textbook form.

    State [x, y, vx, vy]; white-acceleration process noise integrated over dt
    (dt^4/4, dt^3/2, dt^2 blocks); position-only measurement; standard
    (I - KH) P covariance update rather than the Joseph form.
    """
    x = np.asarray(x, dtype=float)
    P = np.asarray(P, dtype=float)
    F = np.array(
        [
            [1.0, 0.0, dt, 0.0],
            [0.0, 1.0, 0.0, dt],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    q4, q3, q2 = dt**4 / 4.0, dt**3 / 2.0, dt**2
    Q = sigma_accel**2 * np.array(
        [
            [q4, 0.0, q3, 0.0],
            [0.0, q4, 0.0, q3],
            [q3, 0.0, q2, 0.0],
            [0.0, q3, 0.0, q2],
        ]
    )
    H = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    x = F @ x
    P = F @ P @ F.T + Q
    if z is not None:
        R = np.eye(2) * sigma_meas**2
        S = H @ P @ H.T + R
        K = P @ H.T @ np.linalg.inv(S)
        x = x + K @ (np.asarray(z, dtype=float) - H @ x)
        P = (np.eye(4) - K @ H) @ P
    return x, P


def gravity_objective(q: np.ndarray, accel_unit: np.ndarray) -> float:
    """Half the squared residual of the gravity-alignment objective.

    The residual compares the gravity direction rotated into the body frame
    against the normalized accelerometer reading (which measures +1 g up when
    the device rests flat).
    """
    w, x, y, z = q
    fx = 2.0 * (x * z - w * y) - accel_unit[0]
    fy = 2.0 * (w * x + y * z) - accel_unit[1]
    fz = 2.0 * (0.5 - x * x - y * y) - accel_unit[2]
    return 0.5 * (fx * fx + fy * fy + fz * fz)


def gravity_gradient_fd(q: np.ndarray, accel_unit: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of gravity_objective in q."""
    g = np.zeros(4)
    for i in range(4):
        e = np.zeros(4)
        e[i] = h
        g[i] = (gravity_objective(q + e, accel_unit) - gravity_objective(q - e, accel_unit)) / (
            2.0 * h
        )
    return g


def polyline_distance_reference(point, waypoints, samples_per_segment: int = 4001) -> float:
    """Distance from a point to a polyline by dense sampling of every segment."""
    p = np.asarray(point, dtype=float)
    wps = [np.asarray(w, dtype=float) for w in waypoints]
    best = math.inf
    for a, b in zip(wps[:-1], wps[1:]):
        ts = np.linspace(0.0, 1.0, samples_per_segment)
        seg = a[None, :] + ts[:, None] * (b - a)[None, :]
        best = min(best, float(np.min(np.linalg.norm(seg - p, axis=1))))
    if not wps[:-1]:  # single waypoint: distance to the point itself
        best = float(np.linalg.norm(wps[0] - p))
    return best


# --- inertial tier in its original 4-element array formulation -------------
# Bit-exact references: every operation is the one the library performs, in
# the same order, on numpy arrays and numpy scalars instead of Python floats.


def quat_multiply_reference(q, r) -> np.ndarray:
    w1, x1, y1, z1 = q
    w2, x2, y2, z2 = r
    return np.array(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ]
    )


def gravity_compensate_reference(accel_body, q, gravity: float) -> np.ndarray:
    """q * (0, a) * conj(q) as a chain of array products, minus (0, 0, g)."""
    q = np.asarray(q, dtype=float)
    qv = np.array([0.0, accel_body[0], accel_body[1], accel_body[2]])
    conj = np.array([q[0], -q[1], -q[2], -q[3]])
    out = quat_multiply_reference(quat_multiply_reference(q, qv), conj)
    return out[1:] - np.array([0.0, 0.0, gravity])


def integrate_velocity_reference(v_prev, a_prev, a_curr, t) -> np.ndarray:
    return np.asarray(v_prev, dtype=float) + t * (
        np.asarray(a_prev, dtype=float) + np.asarray(a_curr, dtype=float)
    ) / 2.0


def madgwick_reference(q, gyro, accel, dt: float, beta: float) -> np.ndarray:
    """Exact gyro increment, one gradient step toward gravity, np.linalg.norm renormalisation."""
    gx, gy, gz = gyro
    ax, ay, az = accel
    rate = math.sqrt(gx * gx + gy * gy + gz * gz)
    theta = rate * dt
    if theta > 0.0:
        s = math.sin(0.5 * theta) / rate
        dq = np.array([math.cos(0.5 * theta), gx * s, gy * s, gz * s])
        q = quat_multiply_reference(q, dq)
    else:
        q = np.asarray(q, dtype=float).copy()
    q1, q2, q3, q4 = q
    a_norm = math.sqrt(ax * ax + ay * ay + az * az)
    if a_norm > 0.0:
        ax, ay, az = ax / a_norm, ay / a_norm, az / a_norm
        _2q1, _2q2, _2q3, _2q4 = 2 * q1, 2 * q2, 2 * q3, 2 * q4
        _4q1, _4q2, _4q3 = 4 * q1, 4 * q2, 4 * q3
        _8q2, _8q3 = 8 * q2, 8 * q3
        q1q1, q2q2, q3q3, q4q4 = q1 * q1, q2 * q2, q3 * q3, q4 * q4
        s1 = _4q1 * q3q3 + _2q3 * ax + _4q1 * q2q2 - _2q2 * ay
        s2 = _4q2 * q4q4 - _2q4 * ax + 4 * q1q1 * q2 - _2q1 * ay - _4q2 + _8q2 * q2q2 + _8q2 * q3q3 + _4q2 * az
        s3 = 4 * q1q1 * q3 + _2q1 * ax + _4q3 * q4q4 - _2q4 * ay - _4q3 + _8q3 * q2q2 + _8q3 * q3q3 + _4q3 * az
        s4 = 4 * q2q2 * q4 - _2q2 * ax + 4 * q3q3 * q4 - _2q3 * ay
        s_norm = math.sqrt(s1 * s1 + s2 * s2 + s3 * s3 + s4 * s4)
        if s_norm > 1e-12:
            step = beta * dt / s_norm
            q = np.array([q1 - step * s1, q2 - step * s2, q3 - step * s3, q4 - step * s4])
    return q / np.linalg.norm(q)


# --- simulator recomputed from the config on every call ----------------------


def pose_on_path_reference(path, t: float):
    """Position, velocity and heading at time t, rebuilding the segment tables."""
    wps = np.asarray(path.waypoints, dtype=float)
    seg = np.diff(wps, axis=0)
    seg_len = np.hypot(seg[:, 0], seg[:, 1])
    dirs = seg / seg_len[:, None]
    if path.speed_mps == 0.0 or t <= path.initial_hold_s:
        return wps[0].copy(), np.zeros(2), math.atan2(dirs[0, 1], dirs[0, 0])
    cum = np.concatenate([[0.0], np.cumsum(seg_len)])
    s = (t - path.initial_hold_s) * path.speed_mps
    if s >= cum[-1]:
        return wps[-1].copy(), np.zeros(2), math.atan2(dirs[-1, 1], dirs[-1, 0])
    i = min(int(np.searchsorted(cum, s, side="right")) - 1, len(seg) - 1)
    return wps[i] + dirs[i] * (s - cum[i]), dirs[i] * path.speed_mps, math.atan2(dirs[i, 1], dirs[i, 0])


def imu_sample_reference(config, client_id: int, t: float, dt: float, seq: int):
    """(accel, gyro) of one simulated reading: backward differences of the true motion.

    The noise is row seq % 256 of the 256 x 6 standard normals drawn by the
    generator keyed (seed, IMU stream, client, seq // 256), redrawn on every call.
    """
    path = config.clients[client_id]
    _, vel, heading = pose_on_path_reference(path, t)
    _, vel0, heading0 = pose_on_path_reference(path, max(0.0, t - dt))
    a_global = np.array([(vel[0] - vel0[0]) / dt, (vel[1] - vel0[1]) / dt, 0.0])
    dh = math.fmod(heading - heading0 + math.pi, 2.0 * math.pi)
    if dh <= 0.0:
        dh += 2.0 * math.pi
    yaw_rate = (dh - math.pi) / dt
    c, s = math.cos(-heading), math.sin(-heading)
    accel = np.array(
        [
            c * a_global[0] - s * a_global[1],
            s * a_global[0] + c * a_global[1],
            a_global[2] + sim.GRAVITY_MPS2,
        ]
    )
    gyro = np.array([0.0, 0.0, yaw_rate])
    sigma = config.noise_sigma_m
    if sigma > 0.0:
        rng = np.random.default_rng([config.seed, sim._STREAM_IMU, client_id, seq // 256])
        z = rng.standard_normal((256, 6))[seq % 256]
        accel = accel + sim.IMU_ACCEL_NOISE_PER_SIGMA * sigma * z[:3]
        gyro = gyro + sim.IMU_GYRO_NOISE_PER_SIGMA * sigma * z[3:]
    return accel, gyro


def point_cloud_reference(config, frame_index: int):
    """Radar-frame (x, y, z, doppler) rows of one instant: bodies, then the clutter."""
    t = frame_index / config.radar_rate_hz
    radar = np.asarray(config.radar_pose, dtype=float)
    clutter_rng = np.random.default_rng([config.seed, sim._STREAM_CLUTTER])
    clutter = [np.empty((0, 4))]
    for spec in config.clutter:
        offsets = clutter_rng.normal(0.0, sim.CLUTTER_SPREAD_M, size=(spec.point_count, 3))
        xyz = np.asarray(spec.position, dtype=float) + offsets - radar
        clutter.append(np.column_stack([xyz, np.zeros(spec.point_count)]))
    rng = np.random.default_rng([config.seed, sim._STREAM_CLOUD, frame_index])
    n = config.points_per_client_per_frame
    blocks = []
    for path in list(config.clients) + list(config.distractors):
        pos, vel, _ = pose_on_path_reference(path, t)
        if config.body_radius_m > 0.0:
            to_radar = math.atan2(radar[1] - pos[1], radar[0] - pos[0])
            theta = to_radar + rng.uniform(-math.pi / 2.0, math.pi / 2.0, n)
            xy = pos + config.body_radius_m * np.column_stack([np.cos(theta), np.sin(theta)])
        else:
            xy = np.tile(pos, (n, 1))
        xyz = np.column_stack([xy, rng.uniform(sim.BODY_Z_MIN_M, sim.BODY_Z_MAX_M, n)])
        if config.noise_sigma_m > 0.0:
            xyz = xyz + rng.normal(0.0, config.noise_sigma_m, size=(n, 3))
        rel = xyz - radar
        rng_norm = np.linalg.norm(rel, axis=1)
        rng_norm[rng_norm == 0.0] = 1.0
        doppler = (rel @ np.array([vel[0], vel[1], 0.0])) / rng_norm
        if config.noise_sigma_m > 0.0:
            doppler = doppler + rng.normal(0.0, config.noise_sigma_m, n)
        blocks.append(np.column_stack([rel, doppler]))
    return np.vstack(blocks + clutter)


# --- the inertial tier, snapshotting the fused state after every reading -----


def inertial_tier_reference(heading, accel_bias, gyro_bias, frames, beta, gravity):
    """Fused (velocity[:2], yaw) after each frame of one client's readings.

    frames holds (readings, instant) pairs. Readings apply in (timestamp, seq)
    order; one with a non-finite time or bias-corrected value, one not after
    the last applied reading, and one whose orientation step overflows
    (|gyro|^2 + 1) dt^2 are skipped. The fused state is taken after every
    applied reading at or before the instant (within 1e-12 s), so the last
    such reading sets it and a frame with none keeps the previous frame's.
    """
    q = np.array([math.cos(heading / 2.0), 0.0, 0.0, math.sin(heading / 2.0)])
    v, a_prev, last = np.zeros(3), np.zeros(3), 0.0
    fused = (np.zeros(2), heading)
    out = []
    for readings, instant in frames:
        for s in sorted(readings, key=lambda s: (s.timestamp_s, s.seq)):
            with np.errstate(over="ignore", invalid="ignore"):
                accel, gyro = s.accel_mps2 - accel_bias, s.gyro_radps - gyro_bias
                if not np.all(np.isfinite([s.timestamp_s, *accel, *gyro])):
                    continue
                dt = s.timestamp_s - last
                if dt <= 0:
                    continue
                if not (gyro @ gyro + 1.0) * dt * dt < math.inf:
                    continue
            q = madgwick_reference(q, gyro, accel, dt, beta)
            a = gravity_compensate_reference(accel, q, gravity)
            v = integrate_velocity_reference(v, a_prev, a, dt)
            a_prev, last = a, s.timestamp_s
            if s.timestamp_s <= instant + 1e-12:
                w, x, y, z = q
                fused = (v[:2].copy(), math.atan2(2.0 * (w * z + x * y), 1.0 - 2.0 * (y * y + z * z)))
        out.append(fused)
    return out


# --- scanning baseline in its original two-loop formulation ----------------


def beam_scan_reference(gain, n_sectors: int, group_size: int, noise_sigma: float, rng):
    """Probe groups of consecutive sectors, then sweep the best, with strict > loops.

    gain(sector) is the noiseless gain. Each probe scores its group's best
    member gain and each swept member its own gain, plus one
    rng.normal(0, noise_sigma) draw apiece when noise_sigma > 0. Returns
    (selected sector, frames spent).
    """

    def noisy(value: float) -> float:
        if noise_sigma > 0.0:
            return value + float(rng.normal(0.0, noise_sigma))
        return value

    groups = [
        list(range(start, min(start + group_size, n_sectors)))
        for start in range(0, n_sectors, group_size)
    ]
    frames = 0
    best_group = None
    best_score = -np.inf
    for group in groups:
        score = noisy(max(gain(s) for s in group))
        frames += 1
        if score > best_score:
            best_score = score
            best_group = group
    best_sector = None
    best_gain = -np.inf
    for s in best_group:
        value = noisy(gain(s))
        frames += 1
        if value > best_gain:
            best_gain = value
            best_sector = s
    return best_sector, frames
