import itertools

import numpy as np
import pytest

from ellipslam.errors import AngleNearPi
from ellipslam.quadrics import QuadricParams, batch_tangent_bboxes
from ellipslam.se3 import Intrinsics, Pose, Twist, compose, inverse, se3_exp, se3_log, se3_log_batch, so3_exp, so3_log
from ellipslam.window import (
    _FD_STEP,
    _TWIST_PERTURB_MINUS,
    _TWIST_PERTURB_PLUS,
    MotionFactor,
    QuadricBBoxFactor,
    ReprojFactor,
    _BBoxBatch,
    _MotionBatch,
    _ReprojBatch,
    _StatePriorBatch,
    _local_coords_rows,
    _ref_stack,
    state_dim,
)


@pytest.fixture
def intrinsics():
    return Intrinsics(500.0, 500.0, 320.0, 240.0)


def object_pose_at(spec, frame) -> Pose:
    """Ground-truth pose of a simulated object (`simulate.ObjectSpec`) in
    `frame`, composed step by step from its start."""
    step = se3_exp(spec.velocity)
    pose = spec.start
    for _ in range(frame):
        pose = compose(step, pose)
    return pose


def camera_pose_at(cfg, frame) -> Pose:
    """Ground-truth camera pose of a simulated scene
    (`simulate.DynamicSceneConfig`) in `frame`."""
    step = se3_exp(cfg.camera_velocity)
    pose = cfg.camera_start
    for _ in range(frame):
        pose = compose(pose, step)
    return pose


def look_at(eye, target, down=(0.0, 1.0, 0.0)) -> Pose:
    """Camera pose T_wc with z pointing from eye to target, y along `down`."""
    eye = np.asarray(eye, dtype=float)
    z = np.asarray(target, dtype=float) - eye
    z = z / np.linalg.norm(z)
    x = np.cross(np.asarray(down, dtype=float), z)
    x = x / np.linalg.norm(x)
    y = np.cross(z, x)
    r = np.stack([x, y, z], axis=1)
    return Pose(r, eye)


def arc_camera_poses(n=5, arc_deg=18.0, radius=12.0, target=(0.0, 0.0, 0.0)):
    """Cameras evenly spread on a horizontal circular arc, all looking at target."""
    target = np.asarray(target, dtype=float)
    angles = np.deg2rad(np.linspace(-arc_deg / 2.0, arc_deg / 2.0, n))
    poses = []
    for a in angles:
        eye = target + radius * np.array([np.sin(a), 0.0, -np.cos(a)])
        poses.append(look_at(eye, target))
    return poses


def sample_ellipsoid_surface(q: QuadricParams, n, rng):
    """n points on the ellipsoid surface in world coordinates."""
    d = rng.normal(size=(n, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    return (d * q.axes) @ q.rotation.T + q.translation


def yaw_rotation(deg):
    a = np.deg2rad(deg)
    return np.array([[np.cos(a), 0.0, np.sin(a)], [0.0, 1.0, 0.0], [-np.sin(a), 0.0, np.cos(a)]])


def brute_force_assignment_cost(cost) -> float:
    """Exhaustive-permutation optimum; oracle for the Hungarian solver."""
    cost = np.asarray(cost, dtype=float)
    m, n = cost.shape
    if m <= n:
        best = min(
            sum(cost[i, p[i]] for i in range(m)) for p in itertools.permutations(range(n), m)
        )
    else:
        best = min(
            sum(cost[p[j], j] for j in range(n)) for p in itertools.permutations(range(m), n)
        )
    return float(best)


def _inv_se3(m):
    rt = m[:3, :3].T
    out = np.eye(4)
    out[:3, :3] = rt
    out[:3, 3] = -rt @ m[:3, 3]
    return out


# the central-difference variants of `reference_bbox_eval`: interleaved
# (+h, -h) twist pairs, rotation-only ones for quadric axes, and the swap of
# each pair for camera twists, which enter through the inverse pose
_TWIST_PERTURB_PAIRS = np.stack([_TWIST_PERTURB_PLUS, _TWIST_PERTURB_MINUS], axis=1).reshape(12, 4, 4)
_ROT_PERTURB_PAIRS = np.stack([so3_exp(s * np.eye(3)[i]) for i in range(3) for s in (_FD_STEP, -_FD_STEP)])
_CAM_SWAP = np.array([1, 0, 3, 2, 5, 4, 7, 6, 9, 8, 11, 10])


def reference_bbox_eval(factors, values, with_jacobians=True):
    """Oracle for `_BBoxBatch.eval`: a per-factor loop of central
    differences over 43 variants of each factor. Returns (factor, r,
    {key: J}) of every factor whose base box is valid; a column is 0 when
    either of its +-h variants is invalid."""
    per = 43 if with_jacobians else 1
    n = len(factors) * per
    axes = np.empty((n, 3))
    trans = np.empty((n, 3))
    rots = np.empty((n, 3, 3))
    mats = np.empty((n, 3, 4))
    zrows = np.empty((n, 4))
    for i, f in enumerate(factors):
        q = values[("quad", f.track)]
        t_wo = values[("obj", f.frame, f.track)]
        t_wc = values[("cam", f.frame)]
        ki = np.hstack([f.k.matrix(), np.zeros((3, 1))])  # K [I | 0]
        a_cw = inverse(t_wc).matrix() @ t_wo.matrix()
        s = slice(i * per, (i + 1) * per)
        axes[s] = q.axes
        trans[s] = q.translation
        rots[s] = q.rotation
        mats[s] = ki @ a_cw
        zrows[s] = a_cw[2]
        if with_jacobians:
            o = i * per
            for col in range(3):
                axes[o + 1 + 2 * col, col] *= np.exp(_FD_STEP)
                axes[o + 2 + 2 * col, col] *= np.exp(-_FD_STEP)
                trans[o + 7 + 2 * col, col] += _FD_STEP
                trans[o + 8 + 2 * col, col] -= _FD_STEP
            rots[o + 13 : o + 19] = q.rotation @ _ROT_PERTURB_PAIRS
            a_obj = np.einsum("ij,njk->nik", a_cw, _TWIST_PERTURB_PAIRS)
            a_cam = np.einsum("nij,jk->nik", _TWIST_PERTURB_PAIRS[_CAM_SWAP], a_cw)
            mats[o + 19 : o + 31] = np.einsum("ij,njk->nik", ki, a_obj)
            zrows[o + 19 : o + 31] = a_obj[:, 2]
            mats[o + 31 : o + 43] = np.einsum("ij,njk->nik", ki, a_cam)
            zrows[o + 31 : o + 43] = a_cam[:, 2]
    boxes, valid = batch_tangent_bboxes(axes, trans, rots, mats, zrows)
    out = []
    for i, f in enumerate(factors):
        o = i * per
        if not valid[o]:
            continue
        res = (f.bbox.vector()[None, :] - boxes[o : o + per]) / f.sigma_px
        if not with_jacobians:
            out.append((f, res[0], None))
            continue
        cols = np.zeros((4, 21))
        for col in range(21):
            ip, im = 1 + 2 * col, 2 + 2 * col
            if valid[o + ip] and valid[o + im]:
                cols[:, col] = (res[ip] - res[im]) / (2 * _FD_STEP)
        out.append((f, res[0], dict(zip(f.keys(), (cols[:, :9], cols[:, 9:15], cols[:, 15:21])))))
    return out


def reference_motion_eval(factors, values, with_jacobians=True):
    """Oracle for `_MotionBatch.eval`: the per-factor loop it replaced.
    Returns (factor, r, {key: J}) of every factor none of whose 37 relative
    rotations (1 without Jacobians) is on the log branch cut."""
    per = 37 if with_jacobians else 1
    rels = np.empty((len(factors) * per, 4, 4))
    for i, f in enumerate(factors):
        m0, m1, m2 = (values[k].matrix() for k in f.keys())
        i1 = _inv_se3(m1)
        o = i * per
        rels[o] = m0 @ i1 @ m2 @ i1
        if with_jacobians:
            b0 = i1 @ m2 @ i1
            q12 = i1 @ m2
            r2 = m0 @ q12
            rels[o + 1 : o + 7] = np.einsum("ij,njk,kl->nil", m0, _TWIST_PERTURB_PLUS, b0)
            rels[o + 7 : o + 13] = np.einsum("ij,njk,kl->nil", m0, _TWIST_PERTURB_MINUS, b0)
            t1p = np.einsum("ij,njk,kl->nil", m0, _TWIST_PERTURB_MINUS, q12)
            t1m = np.einsum("ij,njk,kl->nil", m0, _TWIST_PERTURB_PLUS, q12)
            rels[o + 13 : o + 19] = np.einsum("nij,njk,kl->nil", t1p, _TWIST_PERTURB_MINUS, i1)
            rels[o + 19 : o + 25] = np.einsum("nij,njk,kl->nil", t1m, _TWIST_PERTURB_PLUS, i1)
            rels[o + 25 : o + 31] = np.einsum("ij,njk,kl->nil", r2, _TWIST_PERTURB_PLUS, i1)
            rels[o + 31 : o + 37] = np.einsum("ij,njk,kl->nil", r2, _TWIST_PERTURB_MINUS, i1)
    logs, near_pi = se3_log_batch(rels)
    out = []
    for i, f in enumerate(factors):
        o = i * per
        if near_pi[o : o + per].any():
            continue
        r = logs[o] * f.sqrt_info
        if not with_jacobians:
            out.append((f, r, None))
            continue
        scale = f.sqrt_info[:, None] / (2 * _FD_STEP)
        jacs = [(logs[o + a : o + a + 6] - logs[o + a + 6 : o + a + 12]).T * scale for a in (1, 13, 25)]
        out.append((f, r, dict(zip(f.keys(), jacs))))
    return out


def split_factors(factors):
    """Oracle for the window's persistent factor tables: the from-scratch
    rebuild they replaced. One batch per factor family and form, in the
    order reprojection (per form, intrinsics and kernel), bbox (per kernel),
    motion and state prior (per state dimension)."""
    reproj, bbox, motion, state = {}, {}, {}, {}
    for f in factors:
        if isinstance(f, ReprojFactor):
            key = (
                f.track is not None,
                f.depth is not None and f.sigma_depth is not None,
                (f.k.fx, f.k.fy, f.k.cx, f.k.cy),
                f.robust,
            )
            reproj.setdefault(key, []).append(f)
        elif isinstance(f, QuadricBBoxFactor):
            bbox.setdefault(f.robust, []).append(f)
        elif isinstance(f, MotionFactor):
            motion.setdefault(None, []).append(f)
        else:
            state.setdefault(state_dim(f.key), []).append(f)
    families = ((_ReprojBatch, reproj), (_BBoxBatch, bbox), (_MotionBatch, motion), (_StatePriorBatch, state))
    return [batch(fs) for batch, groups in families for fs in groups.values()]


def reference_retract(value, delta):
    """Oracle for the batched `retract`: the per-state version it replaced."""
    if isinstance(value, Pose):
        return compose(value, se3_exp(Twist.from_vector(delta)))
    if isinstance(value, QuadricParams):
        return QuadricParams(
            value.axes * np.exp(delta[:3]), value.translation + delta[3:6], value.rotation @ so3_exp(delta[6:9])
        )
    return value + delta


def local_coords(value, reference):
    """Inverse of retract: the increment taking reference to value, by the
    window's batched local coordinates of one state; raises AngleNearPi on
    the log branch cut."""
    d, cut = _local_coords_rows([value], _ref_stack([reference]))
    if cut[0]:
        raise AngleNearPi("relative rotation within 1e-6 of pi")
    return d[0]


def reference_local_coords(value, reference):
    """Oracle for the batched local coordinates: the per-state version they
    replaced; raises AngleNearPi on the log branch cut."""
    if isinstance(value, Pose):
        return se3_log(compose(inverse(reference), value)).vector()
    if isinstance(value, QuadricParams):
        return np.concatenate([
            np.log(value.axes) - np.log(reference.axes),
            value.translation - reference.translation,
            so3_log(reference.rotation.T @ value.rotation),
        ])
    return np.asarray(value) - np.asarray(reference)


def reference_marginalize_oldest(window):
    """Oracle for `WindowState.marginalize_oldest`: the three-rule version
    it replaced. Landmarks seen only in the oldest frame are dropped with
    their factors unless the prior holds them, those are eliminated with
    the frame, and so are prior-held landmarks and quadrics that no kept
    factor references."""
    w = window
    if not w.frames or len(w.frames) < w.capacity:
        return
    oldest = w.frames[0]
    elim_keys = {k for k in w.values if k[0] in ("cam", "obj") and k[1] == oldest}
    elsewhere: dict = {}  # landmark -> observed in a later frame
    for t in w._batches():
        if isinstance(t, _ReprojBatch):
            later = np.zeros(len(t.slot_keys[-1]), dtype=bool)
            later[t.index[np.array([k[1] != oldest for k in t.slot_keys[0]])[t.index[:, 0]], -1]] = True
            for k, seen in zip(t.slot_keys[-1], later.tolist()):
                elsewhere[k] = elsewhere.get(k, False) or seen
    only_oldest = {k for k, seen in elsewhere.items() if not seen}
    prior_keys = set(w.prior.keys) if w.prior is not None else set()
    elim_keys |= only_oldest & prior_keys
    dropped_lms = only_oldest - prior_keys
    w._split_off(dropped_lms)
    absorbed = w._split_off(elim_keys)
    for k in dropped_lms:
        w.values.pop(k, None)
    referenced = {k for t in w._tables.values() for slot in t.slot_keys for k in slot}
    elim_keys |= {k for k in prior_keys - referenced if k[0] in ("lm", "olm", "quad")}
    if absorbed or prior_keys & elim_keys:
        w._absorb_into_prior(absorbed, elim_keys)
    for k in elim_keys:
        w.values.pop(k, None)
        w.fixed.discard(k)
    w.frames.pop(0)
