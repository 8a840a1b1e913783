"""The strip worker: a forked process that runs the upper half of
``ref2d.rhs2d``'s windows while the caller runs the lower half.

``rhs2d`` imports this module at its first split call, so a process that
never splits a strip neither loads nor compiles it.  The worker shares
the ghosted U and B, and its rows of the outputs, with the caller
through one anonymous shared mapping per grid shape; a call on another
shape replaces the worker.  Each call's job carries the window bounds,
the grid, g, h_min, theta and the Coriolis rows the caller evaluated, so
the worker reads no setting from its own copy of ``ref2d``.  It ends
when its job pipe closes: at the caller's exit (``atexit`` closes the
pipe and reaps it) or when the caller dies (``PR_SET_PDEATHSIG``).  A
forked child closes the pipes it inherits and forks its own worker.
"""

from __future__ import annotations

import atexit
import ctypes
import mmap
import os
import pickle
import signal

import numpy as np

from . import ref2d
from .fv1d import fill_ghosts
from .ref2d import HALO, Grid2D, RefParams, Solution2D


class StripWorker:
    """The worker for one grid shape, seen from the caller.

    One anonymous shared mapping holds the ghosted U and B, which the
    caller fills, and the strip's dudt and dbdt, whose upper rows the
    worker fills.  One pipe carries each call's job, the other the
    worker's window stats or the exception one of its windows raised.
    """

    def __init__(self, grid: Grid2D):
        n_y, n_z = self.shape = grid.n_y, grid.n_zeta
        shapes = [(5, n_y + 2 * HALO, n_z), (n_y + 2 * HALO, n_z), (5, n_y, n_z),
                  (n_y, n_z)]
        sizes = [int(np.prod(shape)) for shape in shapes]
        flat = np.frombuffer(mmap.mmap(-1, 8 * sum(sizes)), dtype=float)
        ext, self.B_ext, dudt, self.dbdt = (
            flat[end - size:end].reshape(shape)
            for shape, size, end in zip(shapes, sizes, np.cumsum(sizes)))
        # component-first, like the state and fill_ghosts' result
        self.ext, self.dudt = np.moveaxis(ext, 0, -1), np.moveaxis(dudt, 0, -1)
        job_r, job_w = os.pipe()
        reply_r, reply_w = os.pipe()
        parent = os.getpid()
        self.pid = os.fork()
        if self.pid == 0:
            code = 1
            try:
                os.close(job_w)
                os.close(reply_r)
                _die_with(parent)
                self._serve(os.fdopen(job_r, "rb"), os.fdopen(reply_w, "wb"))
                code = 0
            finally:
                os._exit(code)
        os.close(job_r)
        os.close(reply_w)
        self.jobs = os.fdopen(job_w, "wb")
        self.replies = os.fdopen(reply_r, "rb")

    def _serve(self, jobs, replies) -> None:
        """The worker's loop, until its job pipe closes."""
        signal.signal(signal.SIGINT, signal.SIG_IGN)      # the caller's to handle
        while True:
            try:
                windows, grid, g, h_min, theta, f = pickle.load(jobs)
            except EOFError:
                return
            try:
                reply = ref2d._rhs_windows(windows, self.ext, self.B_ext, f, grid,
                                           RefParams(g, h_min=h_min), theta,
                                           self.dudt, self.dbdt)
            except Exception as exc:
                reply = exc
            pickle.dump(reply, replies)
            replies.flush()

    def split(self, windows: list[tuple[int, int]], solution: Solution2D,
              f: np.ndarray, params: RefParams, theta: float, dudt: np.ndarray,
              dbdt: np.ndarray) -> list[tuple[float, ...]]:
        """``ref2d._rhs_windows`` over ``windows``: the lower half here, the
        upper half in the worker at the same time.  The worker's reply is
        read even when a window here raises, so no job outlives the call;
        an exception from a worker's window is raised here."""
        grid = solution.grid
        ext = fill_ghosts(solution.U, grid.boundary_y, HALO, out=self.ext)
        B_ext = fill_ghosts(solution.B, grid.boundary_y, HALO, out=self.B_ext)
        half = len(windows) // 2
        replied = False
        try:
            pickle.dump((windows[half:], grid, params.g, params.h_min, theta, f),
                        self.jobs)
            self.jobs.flush()
            try:
                stats = ref2d._rhs_windows(windows[:half], ext, B_ext, f, grid, params,
                                           theta, dudt, dbdt)
            finally:
                reply = pickle.load(self.replies)
                replied = True
        finally:
            if not replied:               # the pipes are out of step: end the worker
                stop(kill=True)
        if isinstance(reply, BaseException):
            raise reply
        lo = windows[half][0]
        dudt[lo:] = self.dudt[lo:]
        dbdt[lo:] = self.dbdt[lo:]
        return stats + reply

    def close(self, kill: bool = False) -> None:
        """Close the pipes, which ends the worker's loop (or kill it first),
        and reap it."""
        if kill:
            os.kill(self.pid, signal.SIGKILL)
        for pipe in (self.jobs, self.replies):
            try:
                pipe.close()
            except OSError:               # a job left half sent to a dead worker
                pass
        os.waitpid(self.pid, 0)


def _die_with(parent: int) -> None:
    """Have the kernel kill this process when the thread that forked it
    exits (Linux ``PR_SET_PDEATHSIG``): a backstop for a caller that dies
    without closing the job pipe."""
    prctl = getattr(ctypes.CDLL(None), "prctl", None)
    if prctl is not None:
        prctl(1, signal.SIGKILL)          # PR_SET_PDEATHSIG
    if os.getppid() != parent:            # the caller died before the prctl
        os._exit(0)


#: This process's strip worker.
_worker: StripWorker | None = None


def worker(grid: Grid2D) -> StripWorker:
    """This process's strip worker for ``grid``'s shape, forked on first
    use; one for another shape is stopped and replaced."""
    global _worker
    if _worker is None or _worker.shape != (grid.n_y, grid.n_zeta):
        stop()
        _worker = StripWorker(grid)
    return _worker


@atexit.register
def stop(kill: bool = False) -> None:
    """Close the strip worker's pipes (or kill it) and wait for it to exit."""
    global _worker
    if _worker is not None:
        _worker.close(kill)
        _worker = None


def _drop_inherited() -> None:
    """In a forked child, close the pipes of the parent's strip worker, so
    that the worker sees its job pipe close when the parent exits, and
    forget it."""
    global _worker
    if _worker is not None:
        _worker.jobs.close()
        _worker.replies.close()
        _worker = None


os.register_at_fork(after_in_child=_drop_inherited)
