"""Sliding-window factor graph: state bookkeeping, Levenberg-Marquardt on
the manifold and Schur-complement marginalization into a Gaussian prior.

State keys address every optimizable quantity:

    ("cam", frame)            camera pose, 6 local dof
    ("obj", frame, track)     per-frame object pose, 6 dof
    ("lm", id)                background landmark, 3 dof
    ("olm", track, id)        object-frame landmark, 3 dof
    ("quad", track)           ellipsoid, 9 dof (log-axes, t, rotation)

Pose increments are right-multiplied twists; quadric axes update in log
space. The solver is deterministic: fixed iteration order, no seeding.

Each of the four factor families has one batch kernel, whose `eval` hands
the solve and marginalization one block: the kept factors, residuals
(F, rows) and Jacobians (F, rows, cols) in `keys()` order. The batches are
kept across solves as tables (`_Table`), one per family and form, that
`add_factor` appends to and marginalization and track retirement split
with one row mask each:

    ReprojFactor          `_ReprojBatch` on `reproject` (analytic; the
                          pose-only camera solve runs on `reproject` too);
                          rows behind the camera are left out;
                          columns [cam 6 | obj 6 | lm 3]
    QuadricBBoxFactor     `_BBoxBatch`, one per robust kernel: tangent boxes,
                          closed-form tangent-box Jacobian; an invalid box
                          is left out; [quad 9 | obj 6 | cam 6]
    MotionFactor          `_MotionBatch`: batched SE3 log, central
                          differences; [obj 6 x 3]
    StatePriorFactor      `_StatePriorBatch`, one per state dimension:
                          local coordinates to a reference, J = diag;
                          [cam 6], [obj 6] or [quad 9]; a quadric's one
                          prior also carries its size constraint

A motion or pose-prior factor on the log branch cut is switched off for
that evaluation.

`levenberg_marquardt`, the one LM loop, runs `WindowState.lm_solve` and
`initialization.refine_quadric`. Each LM solve and each marginalization
builds one `_Plan` of what depends only on the free states, the tables and
the prior. An assembly (`WindowState._normal_equations`) copies the prior's
H from the plan and adds every family's J^T W J and J^T W r by one flat
`np.add.at`; each damped step factors a copy of H in place. `retract` and
the local coordinates run batched per state kind (pose, point, quadric).

`marginalize_oldest` has one rule: it Schur-eliminates the oldest frame's
camera and object poses, together with every landmark and quadric that no
remaining factor references, into the marginalization prior. So the
prior's keys are live states, and after a marginalization every landmark
and quadric has a factor. The prior (`GaussianPrior`) is held in
information form, its linearization points stacked per state kind; the
solve adds H d - b.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import AngleNearPi, DanglingFactor, NonMonotoneFrameId, SingularSystem
from .quadrics import BBox, QuadricParams, batch_tangent_bboxes, tangent_bbox_jacobian
from .se3 import Intrinsics, Pose, Twist, se3_exp, se3_exp_batch, se3_log_batch, skew_batch, so3_exp

def state_dim(key) -> int:
    kind = key[0]
    if kind in ("cam", "obj"):
        return 6
    if kind in ("lm", "olm"):
        return 3
    if kind == "quad":
        return 9
    raise ValueError(f"unknown state kind {kind}")


def _dim_groups(keys):
    """`keys` grouped by state dimension (pose 6, point 3, quadric 9), each
    group with its columns (m, dim) in the tangent vector of all `keys`."""
    dims = np.array([state_dim(k) for k in keys], dtype=int)
    starts = np.cumsum(dims) - dims
    return [([k for k, m in zip(keys, dims == d) if m], starts[dims == d, None] + np.arange(d))
            for d in dict.fromkeys(dims.tolist())]


def _retract_rows(values, delta):
    """`retract` of a list of states of one type by the rows of delta."""
    if isinstance(values[0], Pose):
        return [Pose(m[:3, :3], m[:3, 3]) for m in _pose_stack(values) @ se3_exp_batch(delta)]
    if isinstance(values[0], QuadricParams):
        return [QuadricParams(v.axes * np.exp(d[:3]), v.translation + d[3:6], v.rotation @ so3_exp(d[6:]))
                for v, d in zip(values, delta)]
    return list(np.asarray(values, dtype=float) + delta)


def _ref_stack(refs):
    """What `_local_coords_rows` needs of a list of references of one type:
    the inverse pose stack, plus log-axes and translations for quadrics, or
    the points (n, 3)."""
    if isinstance(refs[0], QuadricParams):
        return _inv_se3(_pose_stack(refs)), np.log([q.axes for q in refs]), np.array([q.translation for q in refs])
    return (_inv_se3(_pose_stack(refs)),) if isinstance(refs[0], Pose) else (np.asarray(refs, dtype=float),)


def _local_coords_rows(values, refs):
    """Local coordinates, the inverse of `retract`, of a list of states of
    one type to their references stacked by `_ref_stack`, (n, dim), and the
    rows whose relative rotation is on the log branch cut."""
    if isinstance(values[0], (Pose, QuadricParams)):
        logs, cut = se3_log_batch(refs[0] @ _pose_stack(values))
        if isinstance(values[0], Pose):
            return logs, cut
        axes = np.log([v.axes for v in values]) - refs[1]
        return np.hstack([axes, np.array([v.translation for v in values]) - refs[2], logs[:, 3:]]), cut
    return np.asarray(values, dtype=float) - refs[0], np.zeros(len(values), dtype=bool)


def retract(value, delta):
    """Apply a local increment to a state value."""
    return _retract_rows([value], np.asarray(delta, dtype=float)[None])[0]


_FD_STEP = 1e-6
# perturbation transforms exp(+-h e_i) for the fixed finite-difference step
_TWIST_PERTURB_PLUS = np.stack([se3_exp(Twist.from_vector(d)).matrix() for d in _FD_STEP * np.eye(6)])
_TWIST_PERTURB_MINUS = np.stack([se3_exp(Twist.from_vector(-d)).matrix() for d in _FD_STEP * np.eye(6)])


# --- factors --------------------------------------------------------------------


@dataclass
class ReprojFactor:
    """Pixel (and optional depth) observation of a landmark.

    For `track` None the landmark is a background world point; otherwise it
    is an object-frame point seen through the object pose of this frame.
    """

    frame: int
    lm_id: int
    z_px: np.ndarray
    k: Intrinsics
    track: int | None = None
    depth: float | None = None
    sigma_px: float = 1.0
    sigma_depth: float | None = None
    robust: str = "tstudent"

    def keys(self):
        if self.track is None:
            return [("cam", self.frame), ("lm", self.lm_id)]
        return [("cam", self.frame), ("obj", self.frame, self.track), ("olm", self.track, self.lm_id)]


def reproject(k: Intrinsics, p_cam, z_px, sigma_px, depth=None, sigma_depth=None, min_depth=1e-6,
              with_jacobians=True):
    """Pinhole reprojection rows of camera-frame points p_cam (m, 3) against
    pixels z_px (m, 2), plus a depth row (depth - z) when `depth` is given.

    Returns the residuals whitened by the per-row sigmas (m, 2 or 3), the
    validity mask z > min_depth (invalid rows hold finite placeholders) and,
    with Jacobians, d r / d(camera twist) (m, rows, 6) and the projection
    Jacobian d pixel / d p_cam (m, 2, 3) for the point-side chain rule.
    """
    z = p_cam[:, 2]
    valid = z > min_depth
    zs = np.where(valid, z, 1.0)
    pred = np.stack([k.fx * p_cam[:, 0] / zs + k.cx, k.fy * p_cam[:, 1] / zs + k.cy], axis=1)
    m = len(p_cam)
    rows = 2 if depth is None else 3
    r = np.empty((m, rows))
    r[:, :2] = (z_px - pred) / sigma_px[:, None]
    if depth is not None:
        r[:, 2] = (depth - z) / sigma_depth
    if not with_jacobians:
        return r, valid, None, None
    jp = np.zeros((m, 2, 3))
    jp[:, 0, 0] = k.fx / zs
    jp[:, 0, 2] = -k.fx * p_cam[:, 0] / zs**2
    jp[:, 1, 1] = k.fy / zs
    jp[:, 1, 2] = -k.fy * p_cam[:, 1] / zs**2
    # dp_cam/d(camera twist) = [-I | skew(p_cam)]
    dp_cam = np.zeros((m, 3, 6))
    dp_cam[:, 0, 0] = dp_cam[:, 1, 1] = dp_cam[:, 2, 2] = -1.0
    dp_cam[:, 0, 4] = -p_cam[:, 2]
    dp_cam[:, 0, 5] = p_cam[:, 1]
    dp_cam[:, 1, 3] = p_cam[:, 2]
    dp_cam[:, 1, 5] = -p_cam[:, 0]
    dp_cam[:, 2, 3] = -p_cam[:, 1]
    dp_cam[:, 2, 4] = p_cam[:, 0]
    j_cam = np.empty((m, rows, 6))
    j_cam[:, :2] = -(jp @ dp_cam) / sigma_px[:, None, None]
    if depth is not None:
        j_cam[:, 2] = -dp_cam[:, 2] / sigma_depth[:, None]
    return r, valid, j_cam, jp


class _Table:
    """Rows of one factor family and form in insertion order (`seq`).
    `sync` extends the arrays `_rows` builds from queued factors, the state
    keys per position of `keys()` (`slot_keys`, dicts key -> number) and
    each row's numbers (`index`, (F, slots)); `take` splits rows off."""

    robust = None
    group = staticmethod(lambda f: None)

    def __init__(self, factors, seq=()):
        self.factors, self.seq, self._queue = list(factors), list(seq) or list(range(len(factors))), list(factors)
        self.slot_keys = [{} for _ in self.dims]
        self.index = np.zeros((0, len(self.dims)), dtype=int)
        self.sync()

    def order(self):
        """Batch order: by family, then by first factor."""
        return self.rank, self.seq[0]

    def append(self, factor, seq):
        self.factors.append(factor)
        self.seq.append(seq)
        self._queue.append(factor)

    def sync(self):
        if not self._queue:
            return
        new, self._queue = self._queue, []
        idx = [[slot.setdefault(k, len(slot)) for slot, k in zip(self.slot_keys, f.keys())] for f in new]
        self.index = np.concatenate([self.index, np.array(idx, dtype=int)])
        rows = self._rows(new)
        for name, a in rows.items():
            old = getattr(self, name, None)
            setattr(self, name, a if old is None else np.concatenate([old, a]))
        self._names = list(rows)

    def touches(self, keys):
        """Mask of the rows with a state in `keys`."""
        hit = np.zeros(len(self.factors), dtype=bool)
        for slot, idx in zip(self.slot_keys, self.index.T):
            hit |= np.array([k in keys for k in slot], dtype=bool)[idx]
        return hit

    def take(self, mask):
        """Moves the rows in `mask` into a new table and returns it."""
        part = copy.copy(self)
        part._keep(mask)
        self._keep(~mask)
        return part

    def _keep(self, mask):
        self.factors, self._queue = [f for f, m in zip(self.factors, mask) if m], []
        self.seq = [s for s, m in zip(self.seq, mask) if m]
        for name in self._names:
            setattr(self, name, getattr(self, name)[mask])
        index, slots = self.index[mask], []
        for s, slot in enumerate(self.slot_keys):
            used, index[:, s] = np.unique(index[:, s], return_inverse=True)
            keys = list(slot)
            slots.append({keys[u]: i for i, u in enumerate(used)})
        self.index, self.slot_keys = index, slots


def _columns(batch, offsets):
    """Tangent-space columns (F, cols) of every row's states, slot after
    slot; -1 for a state not in `offsets` (fixed)."""
    parts = []
    for keys, idx, dim in zip(batch.slot_keys, batch.index.T, batch.dims):
        start = np.array([offsets.get(k, -1) for k in keys], dtype=int)[idx]
        parts.append(np.where(start[:, None] >= 0, start[:, None] + np.arange(dim), -1))
    return np.concatenate(parts, axis=1)


class _ReprojBatch(_Table):
    """Vectorized evaluation of reprojection factors across the whole
    window, one table per static/dynamic form, depth availability,
    intrinsics and kernel.

    Per-row camera (and object) poses are gathered through index arrays so
    one batch covers every frame. `eval` returns (kept rows, r (F', rows),
    J (F', rows, 15 or 9) or None); a row is kept when its point lies in
    front of the camera.
    """

    rank = 0
    group = staticmethod(lambda f: (f.track is not None, f.depth is not None and f.sigma_depth is not None,
                                    (f.k.fx, f.k.fy, f.k.cx, f.k.cy), f.robust))

    def __init__(self, factors, seq=()):
        self.dynamic, self.has_depth, _, self.robust = self.group(factors[0])
        self.k = factors[0].k
        self.rows = 3 if self.has_depth else 2
        # slots [cam | obj | lm], or [cam | lm] for background points
        self.dims = (6, 6, 3) if self.dynamic else (6, 3)
        self.depth = self.sigma_depth = None
        super().__init__(factors, seq)

    def _rows(self, fs):
        rows = {"z": np.array([f.z_px for f in fs], dtype=float),
                "sigma_px": np.array([f.sigma_px for f in fs], dtype=float)}
        if self.has_depth:
            rows["depth"] = np.array([f.depth for f in fs], dtype=float)
            rows["sigma_depth"] = np.array([f.sigma_depth for f in fs], dtype=float)
        return rows

    def eval(self, values, with_jacobians=True):
        cams = [values[ck] for ck in self.slot_keys[0]]
        row_cam = self.index[:, 0]
        r_cam = np.stack([c.rotation for c in cams])[row_cam]
        t_cam = np.stack([c.translation for c in cams])[row_cam]
        f_o = np.array([values[kk] for kk in self.slot_keys[-1]], dtype=float)[self.index[:, -1]]
        if not self.dynamic:
            x_w = f_o
        else:
            objs = [values[ok] for ok in self.slot_keys[1]]
            row_obj = self.index[:, 1]
            r_obj = np.stack([o.rotation for o in objs])[row_obj]
            t_obj = np.stack([o.translation for o in objs])[row_obj]
            x_w = (r_obj @ f_o[:, :, None])[:, :, 0] + t_obj
        p_cam = ((x_w - t_cam)[:, None] @ r_cam)[:, 0]
        r, valid, j_cam, jp = reproject(self.k, p_cam, self.z, self.sigma_px, self.depth, self.sigma_depth,
                                        with_jacobians=with_jacobians)
        kept = np.flatnonzero(valid)
        if not with_jacobians:
            return kept, r[kept], None
        m = len(r)
        r_cam_t = np.swapaxes(r_cam, 1, 2)  # per-row R^T
        jp_cw = jp @ r_cam_t
        if not self.dynamic:
            j_lm = np.empty((m, self.rows, 3))
            j_lm[:, :2] = -jp_cw / self.sigma_px[:, None, None]
        else:
            # dxw/d(object twist) = R_wo [I | -skew(f_o)]
            dxw_obj = np.zeros((m, 3, 6))
            dxw_obj[:, :, :3] = r_obj
            dxw_obj[:, :, 3:] = -(r_obj @ skew_batch(f_o))
            j_lm = np.empty((m, self.rows, 3))
            j_lm[:, :2] = -(jp_cw @ r_obj) / self.sigma_px[:, None, None]
            j_obj = np.empty((m, self.rows, 6))
            j_obj[:, :2] = -(jp_cw @ dxw_obj) / self.sigma_px[:, None, None]
        if self.has_depth:
            dpz_xw = r_cam_t[:, 2]  # row 2 of R^T per row
            if not self.dynamic:
                j_lm[:, 2] = -dpz_xw / self.sigma_depth[:, None]
            else:
                j_lm[:, 2] = -(dpz_xw[:, None] @ r_obj)[:, 0] / self.sigma_depth[:, None]
                j_obj[:, 2] = -(dpz_xw[:, None] @ dxw_obj)[:, 0] / self.sigma_depth[:, None]
        jac = np.concatenate([j_cam, j_obj, j_lm] if self.dynamic else [j_cam, j_lm], axis=2)
        return kept, r[kept], jac[kept]


def _inv_se3(m):
    """Inverse of a rigid 4x4 transform, or of each in a stack."""
    rt = np.swapaxes(m[..., :3, :3], -1, -2)
    out = np.zeros_like(m)
    out[..., :3, :3] = rt
    out[..., :3, 3] = (-rt @ m[..., :3, 3, None])[..., 0]
    out[..., 3, 3] = 1.0
    return out


def _pose_stack(poses):
    """(n, 4, 4) matrices of a list of poses."""
    m = np.zeros((len(poses), 4, 4))
    m[:, :3, :3] = [p.rotation for p in poses]
    m[:, :3, 3] = [p.translation for p in poses]
    m[:, 3, 3] = 1.0
    return m


@dataclass
class MotionFactor:
    """Constant-velocity smoothness over three consecutive object poses:
    r = log(H_ab^-1 H_bc), H_xy = T_y T_x^-1. Linearized by `_MotionBatch`."""

    track: int
    frames: tuple
    sqrt_info: np.ndarray  # (6,) diagonal

    def keys(self):
        return [("obj", f, self.track) for f in self.frames]


@dataclass
class QuadricBBoxFactor:
    """Detection bbox vs tangent box of the projected ellipsoid (the
    QuadricSLAM bbox factor). Linearized by `_BBoxBatch`."""

    frame: int
    track: int
    bbox: BBox
    k: Intrinsics
    sigma_px: float = 4.0
    robust: str = "huber"

    def keys(self):
        return [("quad", self.track), ("obj", self.frame, self.track), ("cam", self.frame)]


class _BBoxBatch(_Table):
    """Evaluates QuadricBBoxFactors of one robust kernel in one batched
    tangent-bbox call and, with Jacobians, the closed-form tangent-box
    Jacobian of its 21 columns [quad 9 | obj 6 | cam 6]."""

    dims = (9, 6, 6)
    rank = 1
    group = staticmethod(lambda f: f.robust)

    def __init__(self, factors, seq=()):
        self.robust = factors[0].robust
        super().__init__(factors, seq)

    def _rows(self, fs):
        return {"bbox": np.array([f.bbox.vector() for f in fs], dtype=float),
                "sigma_px": np.array([f.sigma_px for f in fs], dtype=float),
                "ki": np.pad(np.array([f.k.matrix() for f in fs]), ((0, 0), (0, 0), (0, 1)))}  # K [I | 0]

    def eval(self, values, with_jacobians=True):
        """(kept factor indices, r (F', 4), J (F', 4, 21) or None). A factor
        is kept when its base box is valid."""
        q_idx, o_idx, c_idx = self.index.T
        quads = [values[k] for k in self.slot_keys[0]]
        axes = np.array([q.axes for q in quads])[q_idx]
        trans = np.array([q.translation for q in quads])[q_idx]
        rot = np.array([q.rotation for q in quads])[q_idx]
        t_wo = _pose_stack([values[k] for k in self.slot_keys[1]])[o_idx]
        t_cw = _inv_se3(_pose_stack([values[k] for k in self.slot_keys[2]]))[c_idx]
        a_cw = t_cw @ t_wo
        boxes, valid = batch_tangent_bboxes(axes, trans, rot, self.ki @ a_cw, a_cw[:, 2])
        kept = np.flatnonzero(valid)
        sigma = self.sigma_px[kept, None]
        res = (self.bbox[kept] - boxes[kept]) / sigma
        if not with_jacobians:
            return kept, res, None
        jac = tangent_bbox_jacobian(axes[kept], trans[kept], rot[kept], self.ki[kept], a_cw[kept])
        return kept, res, jac / -sigma[:, :, None]


class _MotionBatch(_Table):
    """Evaluates every MotionFactor through one batched SE3 log call: per
    factor its residual and, with Jacobians, the +-h variants of its 18
    columns [obj 6 | obj 6 | obj 6] (37 rows). A factor with any of these
    relative rotations on the log branch cut is switched off for that
    evaluation."""

    dims = (6, 6, 6)
    rank = 2

    def _rows(self, fs):
        return {"sqrt_info": np.array([f.sqrt_info for f in fs], dtype=float)}

    def eval(self, values, with_jacobians=True):
        """(kept factor indices, r (F', 6), J (F', 6, 18) or None)."""
        m0, m1, m2 = (
            _pose_stack([values[k] for k in keys])[idx] for keys, idx in zip(self.slot_keys, self.index.T)
        )
        i1 = _inv_se3(m1)
        rels = (m0 @ i1 @ m2 @ i1)[:, None]
        if with_jacobians:
            up, um = _TWIST_PERTURB_PLUS, _TWIST_PERTURB_MINUS
            a0, b0, q12, c1 = m0[:, None], (i1 @ m2 @ i1)[:, None], (i1 @ m2)[:, None], i1[:, None]
            r2 = m0[:, None] @ q12
            rels = np.concatenate(
                [rels, a0 @ up @ b0, a0 @ um @ b0, a0 @ um @ q12 @ um @ c1, a0 @ up @ q12 @ up @ c1,
                 r2 @ up @ c1, r2 @ um @ c1],
                axis=1,
            )
        per = rels.shape[1]
        logs, near_pi = se3_log_batch(rels.reshape(-1, 4, 4))
        kept = np.flatnonzero(~near_pi.reshape(-1, per).any(axis=1))
        logs = logs.reshape(-1, per, 6)[kept]
        r = logs[:, 0] * self.sqrt_info[kept]
        if not with_jacobians:
            return kept, r, None
        # variants (slot, sign, column) -> J[row, slot * 6 + column]
        pm = logs[:, 1:].reshape(-1, 3, 2, 6, 6)
        jac = (pm[:, :, 0] - pm[:, :, 1]).transpose(0, 3, 1, 2).reshape(-1, 6, 18)
        return kept, r, jac * (self.sqrt_info[kept, :, None] / (2 * _FD_STEP))


@dataclass
class StatePriorFactor:
    """Soft anchor of a state to a reference: r = local_coords(x, ref) *
    sqrt_info. On a pose it fixes the gauge (or holds a given camera); on a
    quadric it is the prior around the initialized ellipsoid, since
    narrow-baseline windows leave rotation/translation combinations of the
    9-dof quadric unconstrained by tangent boxes, and its log-axis weights
    carry the size constraint: d a = a d log a, so a weight a / sigma is an
    axis prior of sigma metres to first order. Linearized by
    `_StatePriorBatch`."""

    key: tuple
    reference: Pose | QuadricParams
    sqrt_info: np.ndarray  # (state dim,) diagonal

    def keys(self):
        return [self.key]


class _StatePriorBatch(_Table):
    """Evaluates StatePriorFactors on states of one dimension, the local
    coordinates in one batch; J = diag(sqrt_info). A state on the log
    branch cut is switched off for that evaluation."""

    rank = 3
    group = staticmethod(lambda f: state_dim(f.key))

    def __init__(self, factors, seq=()):
        self.dims = (state_dim(factors[0].key),)
        super().__init__(factors, seq)

    def _rows(self, fs):
        return {"sqrt_info": np.array([f.sqrt_info for f in fs], dtype=float)}

    def eval(self, values, with_jacobians=True):
        """(kept factor indices, r (F', dim), J (F', dim, dim) or None)."""
        refs = _ref_stack([f.reference for f in self.factors])
        r, cut = _local_coords_rows([values[f.key] for f in self.factors], refs)
        kept = np.flatnonzero(~cut)
        r = r[kept] * self.sqrt_info[kept]
        if not with_jacobians:
            return kept, r, None
        diag = np.arange(self.dims[0])
        jac = np.zeros((len(kept), len(diag), len(diag)))
        jac[:, diag, diag] = self.sqrt_info[kept]
        return kept, r, jac


@dataclass
class GaussianPrior:
    """Marginalization prior in information form: the energy
    d^T (H d - 2 b) + c of the local coordinates d(x) of the survivor states
    at their linearization points, with c = b^T H^-1 b so its minimum is 0.
    The window adds H and H d - b to its normal equations directly."""

    keys: list
    lin_points: dict
    info: np.ndarray  # H, (n, n)
    b: np.ndarray  # (n,)
    c: float

    def __post_init__(self):
        # the linearization points stacked once per state kind
        self._groups = [(keys, cols, _ref_stack([self.lin_points[k] for k in keys]))
                        for keys, cols in _dim_groups(self.keys)]

    def dim(self):
        return sum(state_dim(k) for k in self.keys)

    def delta(self, values):
        """Local coordinates at the linearization points; AngleNearPi on the cut."""
        d = np.empty(len(self.b))
        for keys, cols, refs in self._groups:
            d[cols], cut = _local_coords_rows([values[k] for k in keys], refs)
            if cut.any():
                raise AngleNearPi("prior state within 1e-6 of pi from its linearization point")
        return d

    def energy(self, values):
        d = self.delta(values)
        return float(d @ (self.info @ d - 2.0 * self.b)) + self.c

    @staticmethod
    def from_information(keys, lin_points, h, b):
        """Prior of the symmetrized (H, b), factored once by Cholesky on a
        Fortran-ordered copy; only if that fails are eigenvalues <= 1e-12
        dropped, with b's part along them."""
        h = 0.5 * (h + h.T)
        try:
            low, _ = scipy.linalg.cho_factor(h.T.copy(order="F"), lower=True, overwrite_a=True, check_finite=False)
            y = scipy.linalg.solve_triangular(low, b, lower=True, check_finite=False)
            c = float(y @ y)
        except scipy.linalg.LinAlgError:
            evals, evecs = np.linalg.eigh(h)
            keep = evals > 1e-12
            vb = evecs[:, keep].T @ b
            a = np.sqrt(evals[keep])[:, None] * evecs[:, keep].T
            h, b, c = a.T @ a, evecs[:, keep] @ vb, float(np.sum(vb * vb / evals[keep]))
        return GaussianPrior(keys=list(keys), lin_points=dict(lin_points), info=h, b=b, c=c)


# factor type -> its table class; one table per `group` (form) of a family
_TABLES = {ReprojFactor: _ReprojBatch, QuadricBBoxFactor: _BBoxBatch, MotionFactor: _MotionBatch,
           StatePriorFactor: _StatePriorBatch}


class _Plan:
    """What the assemblies of one LM solve or marginalization share: the
    offsets of the free `keys`, each table's columns, flat H indices and,
    when a state is fixed, live column pairs over all its rows, the prior's
    H embedded in `base`, and the H buffer."""

    def __init__(self, keys, batches, prior):
        dims = [state_dim(k) for k in keys]
        self.offsets = dict(zip(keys, np.cumsum([0] + dims).tolist()))
        self.n = n = sum(dims)
        self.batches, self.prior, self.scatter = batches, prior, []
        for batch in batches:
            cols = _columns(batch, self.offsets)
            live = cols >= 0
            pairs = None if live.all() else live[:, :, None] & live[:, None, :]
            self.scatter.append((cols, cols[:, :, None] * n + cols[:, None, :], pairs))
        self.base = np.zeros((n, n))
        if prior is not None:
            at = np.concatenate([np.arange(state_dim(k)) + self.offsets.get(k, -state_dim(k)) for k in prior.keys])
            self.prior_cols = np.flatnonzero(at >= 0)  # the prior's columns of live keys, and theirs in H
            self.prior_idx = at[self.prior_cols]
            c = self.prior_cols
            info = prior.info if len(c) == len(at) else prior.info[np.ix_(c, c)]
            self.base.reshape(-1)[(self.prior_idx[:, None] * n + self.prior_idx).ravel()] = info.ravel()
        self.h = np.empty((n, n))


# --- window ---------------------------------------------------------------------


@dataclass
class SolveReport:
    iterations: int = 0
    accepted_steps: int = 0
    initial_cost: float = 0.0
    final_cost: float = 0.0
    termination: str = ""


@dataclass
class RobustConfig:
    """Parameters of the robust kernels a factor names in its `robust`
    field: "huber", "tstudent", or None for plain least squares."""

    huber_delta: float = 2.447  # 2.447 * sigma_px for sigma = 1
    nu: float = 5.0


@dataclass
class SolverConfig:
    max_iters: int = 50
    lambda_init: float = 1e-3
    step_tol: float = 1e-8
    rel_cost_tol: float = 1e-9
    cost_tol: float = 1e-16  # below float noise for whitened residuals
    robust: RobustConfig = field(default_factory=RobustConfig)


class WindowState:
    """Fixed-capacity window over frames plus landmarks, quadrics, factors
    and an optional marginalization prior."""

    def __init__(self, capacity=15):
        self.capacity = capacity
        self.frames: list[int] = []
        self.values: dict = {}
        self.prior: GaussianPrior | None = None
        self.fixed: set = set()
        # marginalization linearizes with the robust kernel of the last solve
        self.robust = RobustConfig()
        self._tables: dict = {}  # (rank, group) -> table
        self._seq = 0

    @property
    def factors(self) -> list:
        """Every factor, in insertion order."""
        return [f for _, f in sorted((s, f) for t in self._tables.values() for s, f in zip(t.seq, t.factors))]

    @property
    def n_factors(self) -> int:
        """Number of factors, without sorting them."""
        return sum(len(t.factors) for t in self._tables.values())

    def _batches(self):
        for t in self._tables.values():
            t.sync()
        return sorted(self._tables.values(), key=_Table.order)

    def _split_off(self, keys):
        """Removes the factors on any state in `keys`; returns them as tables
        in batch order."""
        out = [t.take(hit) for t in self._batches() if (hit := t.touches(keys)).any()]
        self._tables = {group: t for group, t in self._tables.items() if t.factors}
        return sorted(out, key=_Table.order)

    # -- bookkeeping ------------------------------------------------------------

    def add_frame(self, frame, camera: Pose, object_poses=None, landmarks=None,
                  object_landmarks=None, quadrics=None, factors=None):
        """Insert a frame's states and factors, marginalizing first if the
        window is full. Factor keys must resolve to live states."""
        if self.frames and frame <= self.frames[-1]:
            raise NonMonotoneFrameId(f"frame {frame} after {self.frames[-1]}")
        self.marginalize_oldest()
        self.frames.append(frame)
        self.values[("cam", frame)] = camera
        for tid, pose in (object_poses or {}).items():
            self.values[("obj", frame, tid)] = pose
        for lid, pt in (landmarks or {}).items():
            self.values[("lm", lid)] = np.asarray(pt, dtype=float)
        for (tid, lid), pt in (object_landmarks or {}).items():
            self.values[("olm", tid, lid)] = np.asarray(pt, dtype=float)
        for tid, q in (quadrics or {}).items():
            self.values[("quad", tid)] = q
        for f in factors or []:
            self.add_factor(f)

    def add_factor(self, factor):
        for key in factor.keys():
            if key not in self.values:
                raise DanglingFactor(f"factor references missing state {key}")
        cls = _TABLES[type(factor)]
        group = (cls.rank, cls.group(factor))
        if group in self._tables:
            self._tables[group].append(factor, self._seq)
        else:
            self._tables[group] = cls([factor], [self._seq])
        self._seq += 1

    def retire_tracks(self, alive):
        """Drop the factors and states on quadrics and object landmarks of
        tracks not in `alive`; states the prior holds go with the next
        marginalization, since no factor references them any more."""
        dead = {k for k in self.values if k[0] in ("quad", "olm") and k[1] not in alive}
        if dead:
            self._split_off(dead)
            for key in dead - set(self.prior.keys if self.prior is not None else ()):
                self.values.pop(key)

    # -- optimization ------------------------------------------------------------

    def _free_keys(self):
        order = {"cam": 0, "obj": 1, "lm": 2, "olm": 3, "quad": 4}
        keys = [k for k in self.values if k not in self.fixed]
        keys.sort(key=lambda k: (order[k[0]], k[1:]))
        return keys

    def _cost(self, values, robust_cfg, batches):
        """(robustified cost at `values`, kept mask) of the tables' factors
        in batch order plus the prior, as `_normal_equations` gives them."""
        total, kept_masks = 0.0, []
        for batch in batches:
            kept, r, _ = batch.eval(values, with_jacobians=False)
            kept_masks.append(np.bincount(kept, minlength=len(batch.factors)) > 0)
            total += _rho_vec(np.sqrt(np.einsum("fi,fi->f", r, r)), batch.robust, robust_cfg)
        if self.prior is not None:
            total += self.prior.energy(values)
        return total, np.concatenate(kept_masks + [[self.prior is not None]])

    def lm_solve(self, cfg: SolverConfig | None = None) -> SolveReport:
        """`levenberg_marquardt` over the free states from the window's
        values: the robustified cost of every table plus the prior, each
        state kind retracted in one batch."""
        if cfg is None:
            cfg = SolverConfig()
        if not self._tables and self.prior is None:
            raise ValueError("window has no factors to solve")
        self.robust = cfg.robust
        keys = self._free_keys()
        if not keys:
            return SolveReport(termination="all states fixed")
        groups = _dim_groups(keys)
        batches = self._batches()
        plan = _Plan(keys, batches, self.prior)

        def linearize(values):
            self.values = values  # the assembly reads the window's values
            return self._normal_equations(plan, cfg.robust)

        def retract_all(values, delta):
            out = dict(values)
            for ks, cols in groups:
                out.update(zip(ks, _retract_rows([values[k] for k in ks], delta[cols])))
            return out

        self.values, report = levenberg_marquardt(
            self.values, linearize, lambda values: self._cost(values, cfg.robust, batches), retract_all, cfg)
        return report

    def _normal_equations(self, plan, robust_cfg):
        """Gauss-Newton system H = J^T W J, g = J^T W r over the plan's
        n-dim tangent space of its tables' factors plus the prior, at the
        current values; returns (H, g, kept mask, cost) as `_cost` gives
        the last two at these values. H is
        `plan.h`, started from `plan.base` (the prior's H) and overwritten by
        the next call; the kept rows of each table add their per-factor
        blocks by one flat `np.add.at` at the plan's indices."""
        h_mat, n = plan.h, plan.n
        np.copyto(h_mat, plan.base)
        g = np.zeros(n)
        kept_masks, cost = [], 0.0
        for batch, (cols, flat, pairs) in zip(plan.batches, plan.scatter):
            kept, r, jac = batch.eval(self.values)
            kept_masks.append(np.bincount(kept, minlength=len(cols)) > 0)
            if len(kept) < len(cols):
                cols, flat, pairs = cols[kept], flat[kept], None if pairs is None else pairs[kept]
            norms = np.sqrt(np.einsum("fi,fi->f", r, r))
            cost += _rho_vec(norms, batch.robust, robust_cfg)
            w = _irls_weight_vec(norms, batch.robust, robust_cfg)
            wj_t = np.swapaxes(jac * w[:, None, None], 1, 2)
            blocks = wj_t @ jac
            grads = (wj_t @ r[:, :, None])[:, :, 0]
            if pairs is not None:
                live = cols >= 0
                flat, blocks, cols, grads = flat[pairs], blocks[pairs], cols[live], grads[live]
            np.add.at(h_mat.reshape(-1), flat.ravel(), blocks.ravel())
            np.add.at(g, cols.ravel(), grads.ravel())
        p = plan.prior
        if p is not None:
            d = p.delta(self.values)
            hd = p.info @ d
            g[plan.prior_idx] += (hd - p.b)[plan.prior_cols]
            cost += float(d @ (hd - 2.0 * p.b)) + p.c
        return h_mat, g, np.concatenate(kept_masks + [[p is not None]]), cost

    # -- marginalization -----------------------------------------------------------

    def marginalize_oldest(self):
        """Remove the oldest frame once the window is full: split off every
        factor on its camera and object poses and Schur-eliminate those
        states into the Gaussian prior, together with every landmark and
        quadric that no remaining factor references. A landmark only the
        oldest frame observes goes with it: its 2 or 3 rows never exceed its
        3 dof, so it passes no information to the survivors. The window
        is left as it was when the prior's state is on the log branch cut
        (AngleNearPi)."""
        if not self.frames or len(self.frames) < self.capacity:
            return
        if self.prior is not None:
            self.prior.delta(self.values)  # raises before anything is split off
        oldest = self.frames[0]
        elim_keys = {k for k in self.values if k[0] in ("cam", "obj") and k[1] == oldest}
        absorbed = self._split_off(elim_keys)
        referenced = {k for t in self._tables.values() for slot in t.slot_keys for k in slot}
        elim_keys |= {k for k in self.values if k[0] in ("lm", "olm", "quad") and k not in referenced}
        if absorbed or (self.prior is not None and not elim_keys.isdisjoint(self.prior.keys)):
            self._absorb_into_prior(absorbed, elim_keys)
        for k in elim_keys:
            self.values.pop(k)
            self.fixed.discard(k)
        self.frames.pop(0)

    def _absorb_into_prior(self, absorbed, elim_keys):
        connected = {k for t in absorbed for slot in t.slot_keys for k in slot}
        # the existing prior is always folded in and re-expressed at the
        # current linearization point
        if self.prior is not None:
            connected.update(self.prior.keys)
        connected -= self.fixed
        elim = sorted((k for k in connected & elim_keys), key=lambda k: (k[0], k[1:]))
        surv = sorted((k for k in connected - elim_keys), key=lambda k: (k[0], k[1:]))
        n_e = sum(state_dim(k) for k in elim)
        h_mat, g, _, _ = self._normal_equations(_Plan(elim + surv, absorbed, self.prior), self.robust)
        b = -g
        self.prior = None
        if not surv:
            return
        h_new, b_new = h_mat[n_e:, n_e:], b[n_e:]
        if n_e:
            hes = h_mat[:n_e, n_e:]
            hee_inv = np.linalg.pinv(0.5 * (h_mat[:n_e, :n_e] + h_mat[:n_e, :n_e].T), rcond=1e-12)
            h_new = h_new - hes.T @ hee_inv @ hes
            b_new = b_new - hes.T @ hee_inv @ b[:n_e]
        lin = {k: self.values[k] for k in surv}
        self.prior = GaussianPrior.from_information(surv, lin, h_new, b_new)


def levenberg_marquardt(x, linearize, evaluate, retract, cfg: SolverConfig):
    """LM from `x`: returns the last accepted iterate and a SolveReport.
    `linearize(x)` gives (H, g = J^T r, kept row mask, cost), `evaluate(x)`
    (cost, kept) and `retract(x, delta)` the moved iterate. A step solves
    (H + lam I) delta = -g and is accepted only when the cost falls and no
    kept row is lost; an unfactorable system counts as a reject. Nielsen's
    update (Madsen, Nielsen & Tingleff 2004, 3.2): lam times
    max(1/3, 1 - (2 rho - 1)^3) for gain ratio rho on accept, times nu,
    doubling, per reject. Stops on a non-finite cost, `cost_tol`,
    `step_tol`, or a relative decrease below `rel_cost_tol`."""
    h_mat, g, kept, cost = linearize(x)
    report = SolveReport(initial_cost=cost)
    work = np.empty(h_mat.shape, order="F")
    lam, nu = cfg.lambda_init, 2.0
    termination = "max iterations"
    for it in range(cfg.max_iters):
        if not np.isfinite(cost):
            termination = "non-finite cost"
            break
        if cost < cfg.cost_tol:
            termination = "cost tolerance"
            break
        report.iterations = it + 1
        if it:  # the last iteration moved x
            h_mat, g, kept, _ = linearize(x)
        if not np.any(kept):
            termination = "no active factors"
            break
        if np.max(np.abs(g)) < 1e-12:
            termination = "gradient tolerance"
            break
        for _ in range(12):
            delta = _solve_damped(h_mat, g, lam, work)
            if delta is not None:
                candidate = retract(x, delta)
                new_cost, new_kept = evaluate(candidate)
                if new_cost < cost and new_kept[kept].all():
                    gain = (cost - new_cost) / (delta @ (lam * delta - g))
                    lam, nu = max(lam * max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3), 1e-15), 2.0
                    break
            lam, nu = lam * nu, 2.0 * nu
        else:
            if delta is None:
                raise SingularSystem("normal equations unsolvable after damping")
            termination = "no downhill step"
            break
        x = candidate
        report.accepted_steps += 1
        rel_decrease = (cost - new_cost) / max(cost, 1e-300)
        cost = new_cost
        if np.linalg.norm(delta) < cfg.step_tol:
            termination = "step tolerance"
            break
        if rel_decrease < cfg.rel_cost_tol:
            termination = "relative cost tolerance"
            break
    report.final_cost = cost
    report.termination = termination
    return x, report


def _solve_damped(h_mat, g, lam, work):
    """Step of (H + lam I) x = -g, or None when that system is not positive
    definite or the step is not finite. The Cholesky runs in place in
    `work`, a Fortran-ordered n x n buffer; H is left as it is."""
    # work holds H^T, whose lower triangle is H's upper one
    np.copyto(work.T, h_mat)
    work[np.diag_indices(len(g))] += lam
    try:
        factor = scipy.linalg.cho_factor(work, lower=True, overwrite_a=True, check_finite=False)
        step = scipy.linalg.cho_solve(factor, -g, check_finite=False)
    except (scipy.linalg.LinAlgError, ValueError):
        return None
    return step if np.isfinite(step).all() else None


def _rho_vec(norms, factor_robust, cfg: RobustConfig):
    """Summed robustified cost of whitened residual norms (an array or one
    norm) under the factor's kernel."""
    if factor_robust == "huber":
        d = cfg.huber_delta
        return float(np.sum(np.where(norms <= d, norms * norms, 2.0 * d * norms - d * d)))
    if factor_robust == "tstudent":
        return float(cfg.nu * np.sum(np.log1p(norms * norms / cfg.nu)))
    return float(np.sum(norms * norms))


def _irls_weight_vec(norms, factor_robust, cfg: RobustConfig):
    """IRLS weight in (0, 1] of each whitened residual norm: 1 at 0 and
    non-increasing."""
    if factor_robust == "huber":
        return np.where(norms <= cfg.huber_delta, 1.0, cfg.huber_delta / np.maximum(norms, 1e-12))
    if factor_robust == "tstudent":
        return cfg.nu / (cfg.nu + norms * norms)
    return np.ones_like(norms)
