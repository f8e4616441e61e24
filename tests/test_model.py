import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floqscat.cli import build_model
from floqscat.model import (
    PeriodicHamiltonian,
    build_lattice,
    circulant,
    fleet,
    load_model,
    model_from_json_dict,
    rabi_model,
)
from floqscat.numerics import hermitian_defect

from conftest import random_hermitian
from oracles import (dense_lattice, dense_mirror, dense_ring_spectrum, dense_support,
                     fourier_modes, model_to_json_dict, save_model)


def two_harmonic(seed=0, dim=3):
    rng = np.random.default_rng(seed)
    h0 = random_hermitian(dim, seed)
    m1 = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m2 = 0.4 * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return PeriodicHamiltonian(h0=h0, modes={1: m1, -1: m1.conj().T, 2: m2, -2: m2.conj().T})


class TestEvaluate:
    def test_constant(self):
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        h = PeriodicHamiltonian(h0=x)
        for t in (0.0, 0.3, 0.9, 2.4):
            assert np.array_equal(h.evaluate(t), x.astype(complex))

    def test_cosine_drive_at_zero(self):
        v = random_hermitian(3, seed=1).real  # real symmetric single harmonic
        h0 = random_hermitian(3, seed=2)
        h = PeriodicHamiltonian(h0=h0, modes={1: v, -1: v})
        assert np.abs(h.evaluate(0.0) - (h0 + 2 * v)).max() < 1e-14

    def test_hermitian_at_random_times(self):
        from floqscat.model import fleet

        rng = np.random.default_rng(4)
        for h in [two_harmonic(seed=3)] + fleet():
            for t in rng.uniform(0, 1, size=100):
                assert hermitian_defect(h.evaluate(t)) <= 1e-12

    def test_bitwise_periodicity_on_dyadic_grid(self):
        # t + 1 is exactly representable on the dyadic grid, so t mod 1 agrees
        # bitwise and the evaluations are identical floats
        h = two_harmonic(seed=5)
        for k in range(0, 1024, 37):
            t = k / 1024.0
            assert np.array_equal(h.evaluate(t), h.evaluate(t + 1.0))

    def test_mode_symmetry_enforced(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="partner"):
            PeriodicHamiltonian(h0=np.zeros((2, 2)), modes={1: bad})
        with pytest.raises(ValueError, match="symmetry"):
            PeriodicHamiltonian(h0=np.zeros((2, 2)), modes={1: bad, -1: 2 * bad.conj().T})

    def test_asymmetric_mode_pair_named_by_n(self):
        # the n = +-1 pair holds; the n = +-2 pair breaks H_-2 = H_2^dagger
        h = two_harmonic(seed=4)
        modes = dict(h.modes)
        modes[-2] = modes[-2] + 1e-6
        with pytest.raises(ValueError, match=r"symmetry.* violated at n=-?2:"):
            PeriodicHamiltonian(h0=h.h0, modes=modes)

    @pytest.mark.parametrize("big", [-1, 1])
    def test_pair_named_at_its_smaller_scale(self, monkeypatch, big):
        # H_-1 - H_1^dagger and H_1 - H_-1^dagger share one max; each n is held at
        # its own scale max(max|H0|, max|H_n|), so the n of the smaller mode is named.
        # One difference is formed per pair, each its own pair's
        mode = np.array([[0.0, 1.0], [0.0, 0.0]])
        modes = {big: 10 * mode, -big: mode.T + 1e-6}
        formed = []
        monkeypatch.setattr(np, "abs", lambda a, *args, **kwargs: formed.append(a.shape) or
                            np.absolute(a, *args, **kwargs))
        with pytest.raises(ValueError, match=f"violated at n={-big}:"):
            PeriodicHamiltonian(h0=np.zeros((2, 2)), modes=modes)
        # |H0|, |H0 - H0^H|, one |H_-n - H_n^H| and the two |H_n|
        assert len(formed) == 5

    def test_potential_stacked_over_times(self):
        # V over an array of times is the stack of the single-time calls, bit for bit
        from floqscat.resolvent import grid_potential

        times = np.concatenate([np.arange(32) / 32,
                                np.random.default_rng(3).uniform(-3.0, 3.0, 16)])
        for h in (*fleet(), build_lattice(12, 1.0, -1.0, 0.5, [3, 4, 5]), two_harmonic(2)):
            stacked = h.potential(times)
            assert stacked.shape == (len(times), h.dim, h.dim)
            assert stacked.tobytes() == np.stack([h.potential(t) for t in times]).tobytes()
            assert grid_potential(h, 32).tobytes() == stacked[:32].tobytes()
            assert h.potential(times.reshape(4, 12)).shape == (4, 12, h.dim, h.dim)


class TestFourierModes:
    def test_constant_samples(self):
        x = random_hermitian(2, seed=6)
        samples = [(j / 16, x) for j in range(16)]
        h = fourier_modes(samples, m_cut=2)
        assert np.abs(h.mode(0) - x).max() < 1e-14
        for n in (1, 2, -1, -2):
            assert np.abs(h.mode(n)).max() < 1e-14

    def test_single_harmonic(self):
        v = random_hermitian(3, seed=7).real
        samples = [(j / 64, 2 * np.cos(2 * np.pi * j / 64) * v) for j in range(64)]
        h = fourier_modes(samples, m_cut=3)
        assert np.abs(h.mode(1) - v).max() < 1e-12
        assert np.abs(h.mode(-1) - v).max() < 1e-12
        assert np.abs(h.mode(2)).max() < 1e-12

    def test_degree_three_round_trip(self):
        src = PeriodicHamiltonian(
            h0=np.zeros((3, 3)),
            modes=two_harmonic(seed=8).modes | {},
        )
        # add a third harmonic
        rng = np.random.default_rng(9)
        m3 = 0.2 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        src = PeriodicHamiltonian(h0=np.zeros((3, 3)),
                                  modes=src.modes | {3: m3, -3: m3.conj().T})
        n_t = 8 * 3 + 8
        samples = [(j / n_t, src.evaluate(j / n_t)) for j in range(n_t)]
        rec = fourier_modes(samples, m_cut=3)
        for n in range(-3, 4):
            assert np.abs(rec.mode(n) - src.mode(n)).max() < 1e-10
        for j in range(n_t):
            assert np.abs(rec.evaluate(j / n_t) - src.evaluate(j / n_t)).max() < 1e-10

    def test_rejects_nonuniform_grid(self):
        x = np.eye(2)
        samples = [(j / 16 + (1e-3 if j == 5 else 0), x) for j in range(16)]
        with pytest.raises(ValueError, match="uniform"):
            fourier_modes(samples, m_cut=2)

    def test_rejects_short_grid(self):
        samples = [(j / 8, np.eye(2)) for j in range(8)]
        with pytest.raises(ValueError, match="4\\*M\\+2"):
            fourier_modes(samples, m_cut=2)


class TestLattice:
    def test_free_ring_spectrum(self):
        lat = build_lattice(8, 1.0, 0.0, 0.0, [0])
        evals = np.sort(np.linalg.eigvalsh(lat.h0))
        want = np.sort(-2.0 * np.cos(2 * np.pi * np.arange(8) / 8))
        assert np.abs(evals - want).max() < 1e-12

    def test_static_well_single_site(self):
        lat = build_lattice(8, 1.0, -1.0, 0.0, [0])
        full = lat.evaluate(0.25)
        want = lat.h0.copy()
        want[0, 0] += -1.0
        assert np.abs(full - want).max() < 1e-12

    def test_driven_well_invariants(self):
        lat = build_lattice(64, 1.0, -2.0, 0.5, range(29, 34))
        h = lat
        h.validate()
        rng = np.random.default_rng(10)
        for t in rng.uniform(0, 1, size=20):
            assert hermitian_defect(h.evaluate(t)) <= 1e-12
        # drive modes vanish outside the support window
        outside = np.setdiff1d(np.arange(64), lat.potential_support)
        for n in (-1, 0, 1):
            assert np.abs(np.diag(h.mode(n))[outside]).max() == 0.0
        # cosine amplitude: V(0) - V(1/2) = 2 * drive_amp on the support
        swing = np.diag(h.potential(0.0) - h.potential(0.5)).real
        assert np.allclose(swing[lat.potential_support], 2 * 0.5)

    @pytest.mark.parametrize("sites, hopping", [(8, 1.0), (37, 0.7), (256, 2.5)])
    def test_ring_free_motion_by_fft(self, sites, hopping):
        # eps_k from h0's first column: -2 J cos k; U0(t) and U0(1) those of exp(-i t H0)
        lat = build_lattice(sites, hopping, -1.0, 0.5, [sites // 2])
        k = 2 * np.pi * np.arange(sites) / sites
        assert np.abs(lat.ring_spectrum + 2 * hopping * np.cos(k)).max() <= 1e-13 * sites
        assert np.array_equal(lat.free_levels, np.sort(lat.ring_spectrum))
        assert np.abs(lat.free_levels - lat.free_eig.values).max() <= 1e-13 * sites
        x = np.random.default_rng(3).normal(size=(sites, 3)) + 0j
        for t in (0.5, 1.0, -7.0):
            dense = lat.free_eig.exp(t)
            assert np.abs(lat.free_apply(t, x) - dense @ x).max() <= 1e-12
        assert np.abs(lat.free_period - lat.free_eig.exp(1.0)).max() <= 1e-13

    def test_only_the_exact_ring_has_a_spectrum(self):
        # an open segment or the ring's arrays held generically: free motion by free_eig
        ring = build_lattice(16, 1.0, -1.0, 0.5, [7, 8])
        for lat in (ring.segment(2), PeriodicHamiltonian(h0=ring.h0, modes=ring.modes)):
            assert lat.ring_spectrum is None
            assert np.array_equal(lat.free_levels, lat.free_eig.values)
            assert np.array_equal(lat.free_period, lat.free_eig.exp(1.0))
        assert ring.ring_spectrum is not None

    def test_modes_are_the_complex_diagonals(self):
        # formed complex on the support: the bits of the real diagonals cast
        support = [3, 4, 4, 5]
        lat = build_lattice(16, 1.0, -0.8, 0.5, support)
        for n, value in ((0, -0.8), (1, 0.25), (-1, 0.25)):
            diag = np.zeros(16)
            diag[support] = value
            assert lat.modes[n].tobytes() == np.diag(diag).astype(np.complex128).tobytes()
        assert lat.modes[1] is lat.modes[-1]

    def test_rejects_bad_support(self):
        with pytest.raises(ValueError, match="support"):
            build_lattice(16, 1.0, -1.0, 0.0, [20])
        with pytest.raises(ValueError, match="8 sites"):
            build_lattice(4, 1.0, 0.0, 0.0, [0])


class TestJsonRoundTrip:
    def test_write_read_write_identical(self, tmp_path):
        h = rabi_model(0.3, 0.7)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_model(h, p1)
        h2 = load_model(p1)
        save_model(h2, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert np.array_equal(h.h0, h2.h0)
        for n in h.modes:
            assert np.array_equal(h.mode(n), h2.mode(n))

    def test_dict_round_trip_full_precision(self):
        h = two_harmonic(seed=11)
        doc = json.loads(json.dumps(model_to_json_dict(h)))
        h2 = model_from_json_dict(doc)
        assert np.array_equal(h.h0, h2.h0)
        for n in h.modes:
            assert np.array_equal(h.mode(n), h2.mode(n))

    def test_missing_field_rejected(self):
        doc = model_to_json_dict(rabi_model())
        doc.pop("H0")
        with pytest.raises(ValueError, match="H0"):
            model_from_json_dict(doc)


def scan_columns(h):
    """The null scan's former support: the nonzero columns of any mode."""
    return np.flatnonzero(sum(((m != 0).any(axis=0) for m in h.modes.values()),
                              np.zeros(h.dim, dtype=bool)))


# (sites, hopping, well_depth, drive_amp, support) of the suite's build_lattice calls
SUITE_LATTICES = [
    (8, 1.0, 0.0, 0.0, [0]), (8, 1.0, -1.0, 0.0, [0]), (12, 1.0, -1.0, 0.5, range(4, 8)),
    (40, 1.0, -1.8, 0.5, range(18, 22)), (40, 1.0, -1.5, 0.5, [18, 20]),
    (40, 1.0, -1.5, 0.5, [18, 19, 21]), (40, 1.0, -1.7, 0.45, range(19, 22)),
    (48, 1.0, -1.8, 0.5, range(22, 27)), (64, 1.0, -2.0, 0.5, range(29, 34)),
    (64, 1.0, -2.0, 0.5, range(30, 35)), (64, 1.0, -2.0, 0.0, range(30, 35)),
    (64, 1.0, -2.0, 0.5, [63, 0, 1]), (64, 1.0, -2.0, 0.5, [31, 32, 33]),
    (256, 1.0, -0.8, 0.5, range(126, 131)), (256, 1.0, -1.0, 0.0, range(126, 131)),
    (256, 1.0, -0.8, 0.5, [254, 255, 0, 1, 2]), (256, 1.0, 0.0, 0.0, [128]),
    (128, 1.0, 0.0, 0.0, range(62, 67)), (22, 1.0, -1.0, 0.5, [19, 0, 5]),
    *[(sites, 1.0, -1.8, 0.45, range(sites // 2 - w // 2, sites // 2 - w // 2 + w))
      for sites, w in [(40, 3), (44, 4), (47, 5), (48, 4), (48, 5), (48, 6)]],
]


def suite_models():
    """Every kind of model the suite builds: the fleet, Rabi, sampled and random
    fiber models, constant ones, the shipped configs' and the lattices above."""
    zero = np.zeros((2, 2))
    models = [*fleet(), rabi_model(0.3, 0.8), two_harmonic(seed=11),
              PeriodicHamiltonian(h0=np.diag([0.3, 1.2])),
              PeriodicHamiltonian(h0=zero, modes={1: zero, -1: zero}),
              PeriodicHamiltonian(h0=np.zeros((1, 1)), modes={0: np.array([[0.7]])}),
              fourier_modes([(j / 16, rabi_model().evaluate(j / 16)) for j in range(16)], 2)]
    for path in sorted(Path(__file__).resolve().parents[1].glob("configs/*.json")):
        models.append(build_model(json.loads(path.read_text())["model"]))
    lattices = [build_lattice(*args) for args in SUITE_LATTICES]
    ring = lattices[-1]
    weak_bond, off_support = ring.h0.copy(), {**ring.modes, 0: ring.modes[0].copy()}
    weak_bond[0, 1] = weak_bond[1, 0] = -0.5
    off_support[0][10, 10] = -0.8
    for h0, modes in ((weak_bond, ring.modes), (ring.h0, off_support)):
        lattices.append(PeriodicHamiltonian(h0=h0, modes=modes))
    return models + lattices


class TestSupport:
    """PeriodicHamiltonian.support: the one record of where V(t) acts."""

    def test_matches_the_former_definitions(self):
        for h in suite_models():
            assert np.array_equal(h.support, scan_columns(h)), h.label
            assert not h.support.flags.writeable

    @pytest.mark.parametrize("args", SUITE_LATTICES,
                             ids=lambda a: f"L{a[0]}-{a[2]}-{a[3]}-{list(a[4])}".replace(" ", ""))
    def test_lattice_support_is_the_declared_sites(self, args):
        lat = build_lattice(*args)
        want = np.unique(lat.potential_support) if args[2] or args[3] else []
        assert np.array_equal(lat.support, want)

    @pytest.mark.parametrize("support, centre", [([128], 128), ([254, 255, 0, 1, 2], 0)])
    def test_probes_aim_at_the_arc_midpoint(self, support, centre):
        from floqscat.scattering import make_probes

        for depth in (0.0, -0.8):    # the free ring has no support, but its declared site
            probes = make_probes(build_lattice(256, 1.0, depth, 0.0, support))
            assert np.array_equal(probes.centers[::2] + probes.centers[1::2], np.full(4, 2 * centre))


class TestArc:
    """LatticeModel.arc: the shortest run of ring sites holding the declared support."""

    @pytest.mark.parametrize("sites, support, arc", [
        (40, [18, 20], (18, 3)),
        (40, [18, 19, 21], (18, 4)),
        (64, [63, 0, 1], (63, 3)),
        (64, [0, 32], (0, 33)),           # a tie goes to min..max
        (64, [5], (5, 1)),
        (64, [7, 7, 8, 8, 7], (7, 2)),
        (16, [0, 1, 14, 15], (14, 4)),
    ])
    def test_cases(self, sites, support, arc):
        assert build_lattice(sites, 1.0, -1.0, 0.5, support).arc == arc

    def test_window_in_ring_order(self):
        lat = build_lattice(64, 1.0, -1.0, 0.5, [63, 0, 1])
        assert lat.support_window(2).tolist() == [61, 62, 63, 0, 1, 2, 3]
        assert lat.support_window(40).tolist() == [(23 + i) % 64 for i in range(64)]
        assert np.array_equal(lat.mirror(), -np.arange(64) % 64)    # about site 0

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_translation_covariance(self, data):
        sites = data.draw(st.integers(8, 64), label="sites")
        width = data.draw(st.integers(1, sites // 2), label="width")
        offsets = {0, width - 1} | data.draw(st.sets(st.integers(0, width - 1)), label="inner")
        if data.draw(st.booleans(), label="symmetric"):
            offsets |= {width - 1 - i for i in offsets}
        start = data.draw(st.integers(0, sites - 1), label="start")
        shift = data.draw(st.integers(0, sites - 1), label="shift")
        margin = data.draw(st.integers(0, sites), label="margin")

        def lattice(lo):
            return build_lattice(sites, 1.0, -1.0, 0.5, [(lo + i) % sites for i in offsets])

        a, b = lattice(start), lattice(start + shift)
        assert a.arc == (start, width)
        assert b.arc == ((start + shift) % sites, width)
        window = a.support_window(margin)
        assert len(window) == min(width + 2 * margin, sites) == len(set(window.tolist()))
        assert np.array_equal(b.support_window(margin), (window + shift) % sites)
        ra, rb = a.mirror(), b.mirror()
        assert (ra is None) == (rb is None)
        if ra is not None:
            x = np.arange(sites)
            assert np.array_equal(rb[(x + shift) % sites], (ra + shift) % sites)


class TestStructure:
    """LatticeModel holds the hopping and two diagonals: every array and structure
    read equals, bit for bit, what the dense arrays build_lattice once formed give."""

    @staticmethod
    def assert_mirror(got, want):
        assert (got is None) == (want is None)
        if want is not None:
            assert np.array_equal(got, want)

    @staticmethod
    def assert_modes(got, want):
        assert list(got) == list(want)
        assert all(got[n].tobytes() == want[n].tobytes() for n in want)
        if 1 in got:
            assert got[1] is got[-1]

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_matches_the_dense_oracle(self, data):
        sites = data.draw(st.integers(8, 64), label="sites")
        width = data.draw(st.integers(1, sites // 2), label="width")
        # the arc's ends, then any sites of it, repeats allowed; width 1 holds one site
        offsets = [0, width - 1] + data.draw(st.lists(st.integers(0, width - 1), max_size=4),
                                             label="inner")
        start = data.draw(st.integers(0, sites - 1), label="start")   # a late start wraps site 0
        support = [(start + i) % sites for i in offsets]
        value = st.one_of(st.just(0.0), st.floats(-3.0, 3.0, allow_subnormal=False))
        hopping = data.draw(st.floats(0.1, 3.0), label="|hopping|") * \
            data.draw(st.sampled_from([1.0, -1.0]), label="sign")
        depth, drive = data.draw(value, label="well"), data.draw(value, label="drive")
        margin = data.draw(st.integers(0, (sites - width - 1) // 2), label="margin")

        args = (sites, hopping, depth, drive, support)
        lat, (h0, modes) = build_lattice(*args), dense_lattice(*args)
        assert lat.max_mode == max(map(abs, modes), default=0)
        assert np.array_equal(lat.support, dense_support(h0, modes))
        self.assert_mirror(lat.mirror(), dense_mirror(h0, modes, lat.arc))
        levels = dense_ring_spectrum(h0)
        assert lat.ring_spectrum.tobytes() == levels.tobytes()
        unit = np.eye(sites, dtype=np.complex128)[:, 0]
        free = circulant(np.fft.ifft(np.exp(-1j * levels) * np.fft.fft(unit)))
        assert lat.free_period.tobytes() == free.tobytes()
        # the open chain on the window: the dense arrays' block there
        segment, window = lat.segment(margin), lat.support_window(margin)
        cut = np.ix_(window, window)
        seg_h0, seg_modes = h0[cut], {n: m[cut] for n, m in modes.items()}
        assert segment.ring_spectrum is None and segment.sites == len(window)
        assert np.array_equal(segment.support, dense_support(seg_h0, seg_modes))
        self.assert_mirror(segment.mirror(), dense_mirror(seg_h0, seg_modes, segment.arc))
        # h0 and the modes, formed only now
        assert not {"h0", "modes"} & (vars(lat).keys() | vars(segment).keys())
        assert lat.h0.tobytes() == h0.tobytes() and segment.h0.tobytes() == seg_h0.tobytes()
        self.assert_modes(lat.modes, modes)
        self.assert_modes(segment.modes, seg_modes)

    def test_structure_reads_form_no_square_array(self):
        import tracemalloc

        tracemalloc.start()
        try:
            lat = build_lattice(2048, 1.0, -0.8, 0.5, range(1022, 1027))
            assert lat.mirror() is not None and len(lat.support) == 5 and lat.arc == (1022, 5)
            assert len(lat.ring_spectrum) == len(lat.free_levels) == 2048 and lat.max_mode == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20    # one 2048-site complex matrix takes 64 MiB
        assert not {"h0", "modes"} & vars(lat).keys()
