import inspect
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from oracles import bincount_exchange_sum, fold_search, full_collision, trig_sample
from phononlab import collision, dynamics, experiments, linearized
from phononlab.collision import (blowup_points, collision_operator,
                                 conserved_quantities, entropy, three_bumps)
from phononlab.equilibria import RjParams, rj_field
from phononlab.errors import PositivityError, ResolutionError
from phononlab.grid import Field, Grid, lp_norm
from phononlab.manifold import TWO_PI, h, resonant_kernel

RNG = np.random.default_rng(11)


def smooth_positive_field(grid, seed=0, amp=0.3):
    return Field(grid, 1.0 + amp * (trig_sample(grid.nodes, seed, modes=6) / 6.0))


class TestCollisionOperator:
    def test_constant_is_stationary(self):
        C = collision_operator(Field(Grid(128), np.full(128, 2.5)))
        assert lp_norm(C, np.inf) == 0.0

    def test_rj_stationarity_under_refinement(self):
        for beta, gamma in ((1.0, 1.0), (2.0, 0.5), (0.5, 3.0)):
            res = []
            for n in (128, 256, 512):
                f = rj_field(RjParams(beta, gamma), Grid(n))
                res.append(lp_norm(collision_operator(f), np.inf))
            assert res[0] > res[1] > res[2]
            assert res[2] < 1e-5

    def test_singular_rj_residual_away_from_edges(self):
        # f = 1/omega with the positivity floor; residual shrinks in the bulk
        sup = []
        for n in (128, 256):
            g = Grid(n)
            f = rj_field(RjParams(1.0, 0.0), g)
            C = collision_operator(f)
            bulk = (g.nodes > 0.5) & (g.nodes < TWO_PI - 0.5)
            sup.append(np.max(np.abs(C.values[bulk])))
        assert sup[1] < 0.5 * sup[0]

    def test_mass_conserved_to_rounding(self):
        g = Grid(256)
        f = smooth_positive_field(g, seed=3)
        C = collision_operator(f)
        m, e = conserved_quantities(C)
        scale = lp_norm(f, np.inf) ** 3
        assert abs(m) < 1e-13 * scale

    def test_energy_conservation_improves_with_resolution(self):
        drifts = []
        for n in (128, 256, 512):
            f = smooth_positive_field(Grid(n), seed=5)
            _, e = conserved_quantities(collision_operator(f))
            drifts.append(abs(e))
        assert drifts[2] < drifts[0]
        assert drifts[2] < 1e-5

    def test_above_table_max_n_fails_before_any_table(self, monkeypatch):
        # no run applies C[f] above TABLE_MAX_N = 2048: the operator and the
        # full evolution both raise ResolutionError before a table is built
        built = []
        monkeypatch.setattr(collision.ResonanceTable, "__init__",
                            lambda *args, **kwargs: built.append(args))
        g = Grid(4096)
        f = Field(g, np.ones(g.n))
        with pytest.raises(ResolutionError, match="n = 4096.*n = 2048"):
            collision_operator(f)
        with pytest.raises(ResolutionError, match="n = 4096.*n = 2048"):
            dynamics.evolve_nonlinear_f(f, dynamics.EvolutionConfig(dt=0.1, t_final=1.0))
        # and so do the whole tables of the perturbation right-hand side
        with pytest.raises(ResolutionError, match="n = 4096.*n = 2048"):
            dynamics.PerturbationTables(RjParams(1.0, 1.0), g)
        assert built == []

    @pytest.mark.parametrize("interp", ["linear", "cubic"])
    @pytest.mark.parametrize("n", [64, 100, 256, 300])
    def test_packed_table_matches_full_oracle(self, interp, n):
        # each pair of the packed table stands for both of its orders; the
        # oracle sums every row over all n^2 ordered pairs
        g = Grid(n)
        for f in (smooth_positive_field(g, seed=4),
                  Field(g, np.maximum(0.0, np.sin(3.0 * g.nodes)))):
            got = collision_operator(f, interp, pos_floor=0.0).values
            want = full_collision(f, interp)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("interp", ["linear", "cubic"])
    @pytest.mark.parametrize("n", [64, 100, 256, 300])
    def test_packed_mass_cancels(self, interp, n):
        # each pair adds to one row what it takes from the other
        g = Grid(n)
        for f in (smooth_positive_field(g, seed=6),
                  Field(g, np.maximum(0.0, np.sin(3.0 * g.nodes)))):
            C = collision_operator(f, interp, pos_floor=0.0).values
            assert abs(np.sum(C)) <= 1e-15 * np.sum(np.abs(C))

    def test_diagonal_carries_nothing(self):
        # the packed table drops the diagonal: there h(x, x) = 0 exactly, so
        # the kernel weight is exactly zero
        for n in (64, 100, 1024, 4096):
            x = Grid(n).nodes
            p1, p3, W = resonant_kernel(x, x)
            assert np.all(p1 == 0.0) and np.all(W == 0.0)

    def test_table_bits_independent_of_block_size(self, monkeypatch):
        # a table filled in blocks of 1,000 entries (a ragged last one) has
        # the bits of one filled in one block, whole or half
        g = Grid(300)
        for span in (None, (0, g.n ** 2 // 4)):
            monkeypatch.setattr(collision, "_TABLE_BLOCK", 1 << 16)
            want = collision.ResonanceTable(g, "cubic", span)
            assert want.W.size <= collision._TABLE_BLOCK
            monkeypatch.setattr(collision, "_TABLE_BLOCK", 1000)
            got = collision.ResonanceTable(g, "cubic", span)
            for name in ("i", "j", "P1", "P3", "W"):
                assert np.array_equal(getattr(got, name), getattr(want, name))
            for side in ("i1", "i3"):
                for a, b in zip(*(getattr(tab, side) for tab in (got, want))):
                    assert np.array_equal(a, b)

    def test_packed_pairs_without_the_triangle(self, monkeypatch):
        # the packed table's node pairs, in np.triu_indices(n, 1) order, filled
        # from the row offsets in blocks of 7 entries, which start mid-row,
        # on a row's first entry and on the last row's one entry
        monkeypatch.setattr(collision, "_TABLE_BLOCK", 7)
        for n in (16, 17, 100):
            i, j = np.triu_indices(n, 1)
            tab = collision.ResonanceTable(Grid(n))
            assert np.array_equal(tab.i, i)
            assert np.array_equal(tab.j, j)

    @pytest.mark.parametrize("n", [16, 17, 100, 256, 384])
    def test_mirror_class(self, n):
        # the half-table entries with i + j < n - 1; each entry off the
        # self-mirror line i + j = n - 1 and outside the half is the mirror
        # of exactly one of them
        i, j = np.triu_indices(n, 1)
        tab = collision.ResonanceTable(Grid(n), "cubic", (0, n * n // 4))
        whole = collision.ResonanceTable(Grid(n), "cubic")
        on = tab.i + tab.j < n - 1
        k = np.flatnonzero(i + j < n - 1)
        assert np.array_equal(tab.i[on], i[k]) and np.array_equal(tab.j[on], j[k])
        mirrored = list(zip(n - 1 - tab.j[on], n - 1 - tab.i[on]))
        outside = i + j > n - 1
        assert len(set(mirrored)) == len(mirrored) == np.count_nonzero(outside)
        assert set(mirrored) == set(zip(i[outside], j[outside]))
        if n % 2 == 0:
            assert k.size == n * (n - 2) // 4
        # the half table carries the whole table's bits on the mirror class
        for name in ("i", "j", "P1", "P3", "W"):
            assert np.array_equal(getattr(tab, name)[on], getattr(whole, name)[k])

    def test_positivity_guard(self):
        with pytest.raises(PositivityError):
            collision_operator(Field(Grid(64), np.full(64, 1e-13)))

    def test_weighted_boundedness(self):
        # ||w^-alpha C[f]||_inf <= C ||w^-alpha f||_inf^3 with stable constant
        for alpha in (-1.0, 0.0, 0.5):
            consts = []
            for n in (128, 256):
                g = Grid(n)
                prof = smooth_positive_field(g, seed=8).values
                f = Field(g, g.omega ** alpha * prof)
                C = collision_operator(f)
                num = np.max(g.omega ** (-alpha) * np.abs(C.values))
                den = np.max(g.omega ** (-alpha) * np.abs(f.values)) ** 3
                consts.append(num / den)
            assert consts[1] < 10.0
            assert 0.2 < consts[1] / consts[0] < 5.0

    def test_entropy_production_sign(self):
        # d/dt int log f = <C[f], 1/f> = (1/4) int (measure) prod(f) B^2 >= 0
        # by the four-fold exchange symmetry: entropy is nondecreasing
        for seed in range(5):
            g = Grid(256)
            f = smooth_positive_field(g, seed=seed)
            C = collision_operator(f)
            prod = g.weight * np.sum(C.values / f.values)
            assert prod > -1e-10


class TestDiagnostics:
    def test_conserved_quantities_closed_forms(self):
        g = Grid(512)
        m, e = conserved_quantities(Field(g, np.full(g.n, 1.0)))
        assert m == pytest.approx(TWO_PI, abs=1e-12)
        assert e == pytest.approx(4.0, abs=1e-3)  # midpoint rule on |sin(p/2)|
        m2, e2 = conserved_quantities(Field(g, np.abs(np.sin(g.nodes / 2))))
        assert m2 == pytest.approx(4.0, abs=1e-3)
        assert e2 == pytest.approx(np.pi, abs=1e-3)

    def test_conserved_quantities_vs_brute_force(self):
        f = rj_field(RjParams(1.0, 1.0), Grid(1024))
        m, e = conserved_quantities(f)
        p = (np.arange(10 ** 6) + 0.5) * TWO_PI / 10 ** 6
        fb = 1.0 / (np.abs(np.sin(p / 2)) + 1.0)
        w = TWO_PI / 10 ** 6
        # the nodal rule carries its own O(n^-2) error; compare at that scale
        assert m == pytest.approx(w * np.sum(fb), abs=5e-6)
        assert e == pytest.approx(w * np.sum(np.abs(np.sin(p / 2)) * fb), abs=5e-6)

    def test_entropy(self):
        g = Grid(256)
        assert entropy(Field(g, np.full(g.n, 1.0))) == 0.0
        assert entropy(Field(g, np.full(g.n, np.e))) == pytest.approx(TWO_PI, abs=1e-12)
        with pytest.raises(PositivityError):
            entropy(Field(g, np.full(g.n, 0.0)))


class TestBlowupFamily:
    def test_points_match_reference_digits(self):
        pts = blowup_points()
        assert pts.p0 == 2.0
        assert round(pts.p1, 3) == 1.184
        assert round(pts.p2, 3) == 4.733

    def test_fold_matches_the_search(self):
        # the closed form places the fold where the golden-section search
        # does, p2 to the search's own accuracy
        for p0 in np.linspace(0.2, 6.0, 30):
            pts = blowup_points(p0)
            p1, p2 = fold_search(p0)
            assert abs(pts.p1 - p1) <= 1e-14
            assert abs(pts.p2 - p2) <= 1e-7

    def test_fold_is_the_maximum_of_h(self):
        # p1 = h(p0, p2) to rounding, and no z near p2 takes h above p1
        for p0 in np.linspace(0.05, TWO_PI - 0.05, 60):
            pts = blowup_points(p0)
            assert pts.p0 < pts.p2 < TWO_PI
            assert abs(h(p0, pts.p2) - pts.p1) <= 1e-14
            z = pts.p2 + np.linspace(-1e-3, 1e-3, 201)
            assert np.max(h(p0, z)) <= pts.p1 + 1e-14

    def test_uniform_lp_bound(self):
        # ||f_eps||_p stays bounded as eps -> 0
        p_exp = 2.0
        norms = []
        for k in (4, 5, 6, 7):
            eps = 2.0 ** (-k)
            n = int(2 ** np.ceil(np.log2(32.0 / eps ** 2)))
            g = Grid(n)
            f = Field(g, three_bumps(eps, p_exp, blowup_points())(g.nodes))
            norms.append(lp_norm(f, p_exp))
        assert max(norms) < 2.0 * min(norms)
        assert max(norms) < 3.0


class TestPackedBlocks:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_in_order_and_bounded_ahead(self, monkeypatch, workers):
        # n = 300: 22,500 entries with i + j <= n - 1, 4 blocks of 5,000 and
        # a ragged one.  The caller gets the blocks in table order, with
        # the bits of the same entries of the whole table and W halved on
        # the self-mirror pairs; the blocks start in table order, and while
        # the caller holds block k exactly k + 1 have been started, whatever
        # PHONON_THREADS says (it reaches only verify_suite's pool)
        n = 300
        whole = collision.ResonanceTable(Grid(n))
        half = np.flatnonzero(whole.i + whole.j <= n - 1)
        monkeypatch.setenv("PHONON_THREADS", str(workers))
        monkeypatch.setattr(collision, "_TABLE_BLOCK", 5_000)
        init, started = collision.ResonanceTable.__init__, []

        def counting(self, grid, interp="linear", span=None):
            started.append(span)
            init(self, grid, interp, span)

        monkeypatch.setattr(collision.ResonanceTable, "__init__", counting)
        end = 0
        for k, tab in enumerate(collision._packed_blocks(Grid(n), "linear")):
            assert len(started) == k + 1
            assert started[k] == (end, end + tab.W.size)
            s = half[end:end + tab.W.size]
            for name in ("i", "j", "P1", "P3"):
                assert np.array_equal(getattr(tab, name), getattr(whole, name)[s])
            mirror = whole.i[s] + whole.j[s] == n - 1
            assert np.array_equal(tab.W, np.where(mirror, 0.5, 1.0) * whole.W[s])
            end += tab.W.size
        assert k == 4 and end == half.size == (n // 2) ** 2
        assert len(started) == 5

    @pytest.mark.parametrize("n", [16, 17, 100, 256, 384])
    def test_half_entries(self, n):
        # the half table is the pairs i + j <= n - 1 in table order; any
        # span of it is the same slice of the whole
        i, j = np.triu_indices(n, 1)
        half = np.flatnonzero(i + j <= n - 1)
        tab = collision.ResonanceTable(Grid(n), "cubic", (0, half.size))
        assert np.array_equal(tab.i, i[half]) and np.array_equal(tab.j, j[half])
        part = collision.ResonanceTable(Grid(n), "linear", (5, half.size - 3))
        assert np.array_equal(part.i, i[half][5:-3]) and np.array_equal(part.j, j[half][5:-3])
        assert half.size == (n // 2) * (n - n // 2) == n * n // 4
        # a half table carries the whole table's bits at those entries, W
        # exactly halved on the self-mirror pairs
        whole = collision.ResonanceTable(Grid(n), "cubic")
        for name in ("i", "j", "P1", "P3"):
            assert np.array_equal(getattr(tab, name), getattr(whole, name)[half])
        mirror = i[half] + j[half] == n - 1
        assert np.array_equal(tab.W[~mirror], whole.W[half][~mirror])
        assert np.array_equal(tab.W[mirror], 0.5 * whole.W[half][mirror])

    @pytest.mark.parametrize("n", [16, 17, 100, 101])
    @pytest.mark.parametrize("where", ["whole", "half", "mid-row", "row-start", "one-entry"])
    def test_layout_from_the_row_offsets(self, n, where):
        # the pairs, the runs (against their old definition, a pass over i)
        # and the halved self-mirror entries of the whole table and of half
        # table spans that start mid-row (and end mid-row, dropping the last
        # self-mirror pairs), on a row's first entry, or hold one entry
        i, j = np.triu_indices(n, 1)
        half = np.flatnonzero(i + j <= n - 1)
        row1 = n - 1  # the half table's row 1 starts after row 0's n - 1 entries
        span = {"whole": None, "half": (0, half.size), "mid-row": (row1 - 3, half.size - 2),
                "row-start": (row1, row1 + n), "one-entry": (row1 + 1, row1 + 2)}[where]
        k = np.arange(i.size) if span is None else half[slice(*span)]
        tab = collision.ResonanceTable(Grid(n), "linear", span)
        assert np.array_equal(tab.i, i[k]) and np.array_equal(tab.j, j[k])
        assert np.array_equal(tab.runs, np.flatnonzero(np.diff(tab.i, prepend=-1)))
        mirror = (i[k] + j[k] == n - 1) & (span is not None)
        whole = collision.ResonanceTable(Grid(n))
        assert np.array_equal(tab.W, np.where(mirror, 0.5, 1.0) * whole.W[k])

    @pytest.mark.parametrize("half", [False, True], ids=["whole", "half"])
    def test_traced_peak_of_an_owned_build(self, half):
        # i and j are filled a block at a time from the row offsets, so an
        # owned build holds little beside the table's own arrays (1.27 and
        # 1.35 times their bytes, whole and half, when the pairs were formed
        # whole first)
        g = Grid(1024)
        tracemalloc.start()
        try:
            tab = collision.ResonanceTable(g, "linear", (0, g.n ** 2 // 4) if half else None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        owners = {id(a): a for a in map(_owner, (tab.i, tab.j, tab.P1, tab.P3, tab.W,
                                                 *tab.i1, *tab.i3))}
        assert peak <= 1.15 * sum(a.nbytes for a in owners.values())


class TestExchangeSum:
    # n = 100: the whole table's rows hold 99, 98, ..., 1 entries (4,950),
    # the half table's 99, 97, ..., 1 (2,500).  Blocks of 128 cut rows
    # mid-run, the second block of 99 starts exactly on row 1's first entry,
    # and a block of 2^14 holds either table whole
    @pytest.mark.parametrize("block", [128, 99, 1 << 14])
    @pytest.mark.parametrize("half", [False, True], ids=["whole", "half"])
    @pytest.mark.parametrize("interp", ["linear", "cubic"])
    def test_matches_the_bincount_scatter(self, monkeypatch, interp, half, block):
        n = 100
        grid = Grid(n)
        tab = collision.ResonanceTable(grid, interp, (0, n * n // 4) if half else None)
        assert tab.runs.size == (n // 2 if half else n - 1) and 99 in tab.runs
        assert np.array_equal(tab.runs, np.flatnonzero(np.diff(tab.i, prepend=-1)))
        v = smooth_positive_field(grid, seed=8).values
        term = lambda s, *f4: tab.W[s] * collision._bracket(*f4)
        monkeypatch.setattr(collision, "_EXCHANGE_BLOCK", block)
        got = tab.exchange_sum(v, term)
        want = bincount_exchange_sum(tab, v, term)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
        # the whole table's row n - 1 holds no entries, and the run sums add
        # exactly 0 to it
        if not half:
            assert got[n - 1] == want[n - 1]


def _owner(arr: np.ndarray) -> np.ndarray:
    """The array that owns the memory of arr: its .base followed to the top."""
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


GLIBC = pytest.mark.skipif(not sys.platform.startswith("linux")
                           or platform.libc_ver()[0] != "glibc",
                           reason="mallopt settings are glibc's")


class TestMallocPin:
    def test_hot_loop_blocks_stay_under_the_mmap_threshold(self):
        # the pinned threshold keeps smaller blocks on the heap, whose pages
        # the next block reuses
        slab = experiments._SLAB_ROWS * \
            inspect.signature(experiments.verify_suite).parameters["grid_side"].default
        for values in (collision._EXCHANGE_BLOCK, collision._BATCH,
                       linearized._BLOCK_VALUES, slab):
            assert 8 * values < collision._MMAP_THRESHOLD
        # what is allocated, measured at the array that owns the memory: the
        # arrays of a full streamed table block (the half table of n = 512,
        # 2^16 entries, fills a first block of any size up to that), and the
        # rows that exchange_sum and nonlinear own
        tab = next(collision._packed_blocks(Grid(512), "cubic"))
        assert tab.W.size == collision._TABLE_BLOCK
        owned = {name: getattr(tab, name) for name in ("i", "j", "P1", "P3", "W")}
        owned.update({f"{side}[{k}]": x for side in ("i1", "i3")
                      for k, x in enumerate(getattr(tab, side))})
        grid = Grid(256)
        tabs = dynamics.PerturbationTables(RjParams(1.0, 1.0), grid, "cubic", even=True)
        v = 0.01 * trig_sample(grid.nodes, 2, modes=4)
        tabs.nonlinear(v + v[::-1])
        owned.update({"exchange_sum's rows": tabs.tab._values, "nonlinear's rows": tabs._buffers})
        for name, arr in owned.items():
            assert _owner(arr).nbytes < collision._MMAP_THRESHOLD, name

    @GLIBC
    def test_pin_takes_on_glibc(self):
        assert collision._MALLOC_PINNED

    @GLIBC
    def test_pool_workers_share_one_arena(self):
        # glibc's malloc_stats() prints one "Arena k:" block per malloc
        # arena; verify_suite's two slab threads allocating heap blocks at
        # once add none
        script = (
            "import ctypes\n"
            "from phononlab import experiments\n"
            "experiments.verify_suite(n_random=10, n_sign=1, grid_side=200)\n"
            "libc = ctypes.CDLL(None)\n"
            "libc.malloc_stats.argtypes, libc.malloc_stats.restype = (), None\n"
            "libc.malloc_stats()\n")
        src = str(Path(collision.__file__).resolve().parents[1])
        env = {**os.environ, "PHONON_THREADS": "2",
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, check=True, timeout=60)
        arenas = [line for line in out.stderr.splitlines() if line.startswith("Arena ")]
        assert arenas == ["Arena 0:"], out.stderr
