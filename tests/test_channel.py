"""Tests for array geometry and channel synthesis."""

import re
from pathlib import Path

import numpy as np
import pytest

from beamtrack.channel import (
    ArrayGeometry,
    ChannelState,
    StateLayout,
    angle_to_virtual,
    channel_matrix,
    real_channel_vector,
    real_channel_vectors,
    steering_factors,
    steering_vector,
    virtual_to_spatial,
)
from beamtrack.errors import DimensionMismatch, SingularAngle

SRC = Path(__file__).resolve().parent.parent / "src" / "beamtrack"

# A state offset or stride written out from L: ``2 * L``, ``4 * cfg.L``,
# ``6 * model.L``, ``x[1::2]``, ``x[a : b : 2]``.
STATE_OFFSET = re.compile(r"[246] \* (cfg\.|model\.|self\.)?L\b|:: ?2\]|: 2\]")

GEOM2 = ArrayGeometry(2)
GEOM_HALF = ArrayGeometry(4, 0.5)


def single_path_state(gain, tx_pos=0.0, rx_pos=0.0, tx_vel=0.0, rx_vel=0.0):
    return ChannelState.from_parts([gain], [tx_pos], [tx_vel], [rx_pos], [rx_vel])


class TestVirtualToSpatial:
    def test_zero(self):
        assert virtual_to_spatial(0.0, GEOM_HALF) == 0.0

    def test_unit_position(self):
        # 0.5 * 1/sqrt(2)
        assert abs(virtual_to_spatial(1.0, GEOM_HALF) - 0.5 / np.sqrt(2.0)) < 1e-12

    def test_asymptote(self):
        assert virtual_to_spatial(1e9, GEOM_HALF) > 0.4999999
        # strictly below d/lambda in exact arithmetic; equality only at float precision
        assert virtual_to_spatial(1e9, GEOM_HALF) <= 0.5
        assert virtual_to_spatial(1e6, GEOM_HALF) < 0.5

    def test_odd_and_monotone(self):
        ups = np.linspace(-50.0, 50.0, 401)
        nus = virtual_to_spatial(ups, GEOM_HALF)
        np.testing.assert_allclose(nus, -virtual_to_spatial(-ups, GEOM_HALF), atol=1e-15)
        assert np.all(np.diff(nus) > 0)
        assert np.all(np.abs(nus) < 0.5)

    def test_chain_equals_sine_rule(self):
        # tan then project == (d/lambda) sin(theta), for |theta| < pi/2
        for theta in np.linspace(-1.5, 1.5, 31):
            nu = virtual_to_spatial(angle_to_virtual(theta), GEOM_HALF)
            assert abs(nu - 0.5 * np.sin(theta)) < 1e-12


class TestAngleToVirtual:
    def test_zero(self):
        assert angle_to_virtual(0.0) == 0.0

    def test_quarter_pi(self):
        assert abs(angle_to_virtual(np.pi / 4) - 1.0) < 1e-12

    def test_negative_sixth(self):
        assert abs(angle_to_virtual(-np.pi / 6) - (-1.0 / np.sqrt(3.0))) < 1e-12

    def test_rejects_right_angle(self):
        with pytest.raises(SingularAngle):
            angle_to_virtual(np.pi / 2)
        with pytest.raises(SingularAngle):
            angle_to_virtual(-np.pi / 2 + 1e-12)


class TestSteeringVector:
    def test_broadside_is_all_ones(self):
        np.testing.assert_array_equal(steering_vector(0.0, 4), np.ones(4))

    def test_quarter_turn(self):
        np.testing.assert_allclose(steering_vector(0.25, 2), [-1j, -1.0], atol=1e-15)

    def test_half_turn(self):
        np.testing.assert_allclose(steering_vector(0.5, 3), [-1.0, 1.0, -1.0], atol=1e-15)

    def test_unit_modulus(self):
        a = steering_vector(0.123, 16)
        np.testing.assert_allclose(np.abs(a), 1.0, atol=1e-15)

    def test_conjugate_symmetry(self):
        np.testing.assert_allclose(
            steering_vector(-0.2, 8), steering_vector(0.2, 8).conj(), atol=1e-15
        )


class TestChannelMatrix:
    def test_single_broadside_path(self):
        H = channel_matrix(single_path_state(1.0), ArrayGeometry(3), ArrayGeometry(2))
        np.testing.assert_allclose(H, np.ones((2, 3)), atol=1e-15)

    def test_rank_one_norm(self):
        st = single_path_state(2.0, tx_pos=0.7, rx_pos=-1.3)
        H = channel_matrix(st, ArrayGeometry(5), ArrayGeometry(3))
        assert abs(np.linalg.norm(H) - 2.0 * np.sqrt(15.0)) < 1e-12

    def test_two_path_cancellation(self):
        st = ChannelState.from_parts(
            [1.5, -1.5], [0.4, 0.4], [0.0, 0.0], [-0.2, -0.2], [0.0, 0.0]
        )
        H = channel_matrix(st, GEOM2, GEOM2)
        np.testing.assert_allclose(H, 0.0, atol=1e-14)

    def test_gain_homogeneity(self):
        rng = np.random.default_rng(4)
        gains = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        pos = rng.standard_normal(3)
        st = ChannelState.from_parts(gains, pos, 0 * pos, -pos, 0 * pos)
        st_scaled = ChannelState.from_parts(3.0 * gains, pos, 0 * pos, -pos, 0 * pos)
        H = channel_matrix(st, GEOM_HALF, GEOM_HALF)
        H3 = channel_matrix(st_scaled, GEOM_HALF, GEOM_HALF)
        assert abs(np.linalg.norm(H3) - 3.0 * np.linalg.norm(H)) < 1e-12

    def test_spectral_norm_bound(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            gains = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            tp, rp = rng.standard_normal(4), rng.standard_normal(4)
            st = ChannelState.from_parts(gains, tp, 0 * tp, rp, 0 * rp)
            H = channel_matrix(st, GEOM_HALF, GEOM_HALF)
            bound = np.sum(np.abs(gains)) * 4.0  # sqrt(M_R * M_T) = 4
            assert np.linalg.norm(H, 2) <= bound + 1e-10


class TestRealChannelVector:
    def test_broadside_two_by_two(self):
        st = single_path_state(1.0)
        h = real_channel_vector(st, GEOM2, GEOM2)
        np.testing.assert_allclose(h, [1, 1, 1, 1, 0, 0, 0, 0], atol=1e-15)

    def test_imaginary_gain_single_antenna(self):
        st = single_path_state(1j)
        h = real_channel_vector(st, ArrayGeometry(1), ArrayGeometry(1))
        np.testing.assert_allclose(h, [0.0, 1.0], atol=1e-15)

    def test_roundtrip_against_channel_matrix(self):
        rng = np.random.default_rng(17)
        gains = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        st = ChannelState.from_parts(
            gains, rng.standard_normal(2), [0, 0], rng.standard_normal(2), [0, 0]
        )
        tx, rx = ArrayGeometry(3), ArrayGeometry(4)
        h = real_channel_vector(st, tx, rx)
        n = 3 * 4
        H_rec = (h[:n] + 1j * h[n:]).reshape(4, 3, order="F")
        assert np.max(np.abs(H_rec - channel_matrix(st, tx, rx))) < 1e-14

    def test_batched_matches_scalar(self):
        rng = np.random.default_rng(18)
        L, tx, rx = 3, ArrayGeometry(4), ArrayGeometry(5)
        X = rng.standard_normal((7, 6 * L))
        batch = real_channel_vectors(X, L, tx, rx)
        for i in range(7):
            row = real_channel_vector(ChannelState(L, X[i]), tx, rx)
            np.testing.assert_allclose(batch[i], row, atol=1e-13)

    @pytest.mark.parametrize(
        "L, M, P",
        [(2, 8, 25), (4, 16, 49), (1, 16, 13), (3, 7, 37)],
        ids=["small-problem", "default", "one-path", "odd"],
    )
    def test_rows_do_not_depend_on_batch_position(self, L, M, P):
        # A state's row is the same bit for bit wherever it sits in the
        # batch and when it is evaluated alone.
        rng = np.random.default_rng(70 + L)
        tx, rx = ArrayGeometry(M), ArrayGeometry(M + 1)
        for _ in range(4):
            X = rng.standard_normal((P, 6 * L))
            full = real_channel_vectors(X, L, tx, rx)
            perm = rng.permutation(P)
            shuffled = real_channel_vectors(X[perm], L, tx, rx)
            np.testing.assert_array_equal(shuffled, full[perm])
            for p in range(P):
                alone = real_channel_vectors(X[p : p + 1], L, tx, rx)
                np.testing.assert_array_equal(alone[0], full[p])

    def test_batch_rejects_bad_width(self):
        with pytest.raises(DimensionMismatch):
            real_channel_vectors(np.zeros((2, 10)), 2, GEOM2, GEOM2)


class TestSteeringFactors:
    @pytest.mark.parametrize(
        "tx, rx",
        [(ArrayGeometry(M), ArrayGeometry(M)) for M in (1, 2, 16, 64)]
        + [
            (ArrayGeometry(16, 0.5), ArrayGeometry(5, 0.3)),
            (ArrayGeometry(3, 0.7), ArrayGeometry(64, 0.5)),
        ],
        ids=["1", "2", "16", "64", "tx-longer", "rx-longer"],
    )
    def test_running_product_matches_exp_formula(self, tx, rx):
        # Virtual positions up to 1e3 put the spatial angles right at the
        # edge of the visible range, where the phase per antenna is largest.
        # The two sides share one running product, so each must come out at
        # its own length and spacing.
        rng = np.random.default_rng(19)
        L, P = 4, 50
        X = rng.standard_normal((P, 6 * L))
        X[:, 2 * L :] *= np.logspace(-2, 3, P)[:, None]
        _, a_t, a_r = steering_factors(X, L, tx, rx)
        assert a_t.shape == (P, tx.num_antennas, L)
        assert a_r.shape == (P, rx.num_antennas, L)
        for a, block, geom in (
            (a_t, X[:, 2 * L : 4 * L : 2], tx),
            (a_r, X[:, 4 * L :: 2], rx),
        ):
            m = np.arange(1, geom.num_antennas + 1)
            nu = virtual_to_spatial(block, geom)
            ref = np.exp(-2j * np.pi * nu[:, None, :] * m[None, :, None])
            np.testing.assert_allclose(a, ref, rtol=0.0, atol=1e-13)


class TestChannelState:
    def test_layout_accessors(self):
        st = ChannelState.from_parts(
            [1 + 2j, 3 - 1j], [0.1, 0.2], [10.0, 20.0], [-0.3, 0.4], [-5.0, 6.0]
        )
        np.testing.assert_array_equal(st.gains, [1 + 2j, 3 - 1j])
        np.testing.assert_array_equal(st.tx_positions, [0.1, 0.2])
        np.testing.assert_array_equal(st.tx_velocities, [10.0, 20.0])
        np.testing.assert_array_equal(st.rx_positions, [-0.3, 0.4])
        np.testing.assert_array_equal(st.rx_velocities, [-5.0, 6.0])
        # interleaved flat layout
        np.testing.assert_array_equal(
            st.x,
            [1, 2, 3, -1, 0.1, 10.0, 0.2, 20.0, -0.3, -5.0, 0.4, 6.0],
        )

    def test_rejects_wrong_length(self):
        with pytest.raises(DimensionMismatch):
            ChannelState(2, np.zeros(10))


class TestStateLayout:
    FIELDS = ("gain_re", "gain_im", "tx_pos", "tx_vel", "rx_pos", "rx_vel")

    @pytest.mark.parametrize("L", [1, 4])
    def test_fields_partition_the_state(self, L):
        lay = StateLayout.of(L)
        assert lay.size == 6 * L
        index = np.arange(lay.size)
        covered = np.concatenate([index[getattr(lay, name)] for name in self.FIELDS])
        assert all(index[getattr(lay, name)].shape == (L,) for name in self.FIELDS)
        np.testing.assert_array_equal(np.sort(covered), index)

    @pytest.mark.parametrize("L", [1, 4])
    def test_spanning_slices_join_their_fields(self, L):
        lay = StateLayout.of(L)
        index = np.arange(lay.size)

        def union(*names):
            return np.sort(np.concatenate([index[getattr(lay, n)] for n in names]))

        np.testing.assert_array_equal(index[lay.gain], union("gain_re", "gain_im"))
        np.testing.assert_array_equal(index[lay.positions], union("tx_pos", "rx_pos"))
        np.testing.assert_array_equal(index[lay.velocities], union("tx_vel", "rx_vel"))

    def test_slices_index_the_last_axis_of_a_stack(self):
        st = ChannelState.from_parts(
            [1 + 2j, 3 - 1j], [0.1, 0.2], [10.0, 20.0], [-0.3, 0.4], [-5.0, 6.0]
        )
        stack = np.stack([st.x, 2.0 * st.x])[None]  # (1, 2, 12)
        lay = StateLayout.of(2)
        np.testing.assert_array_equal(stack[..., lay.tx_pos], [[[0.1, 0.2], [0.2, 0.4]]])
        np.testing.assert_array_equal(stack[..., lay.rx_vel][0, 1], [-10.0, 12.0])

    def test_built_once_per_length(self):
        assert StateLayout.of(3) is StateLayout.of(3)
        assert StateLayout.of(3) != StateLayout.of(2)

    def test_only_channel_computes_state_offsets(self):
        found = [
            f"{path.name}:{number}: {line.strip()}"
            for path in sorted(SRC.glob("*.py"))
            if path.name != "channel.py"
            for number, line in enumerate(path.read_text().splitlines(), start=1)
            if STATE_OFFSET.search(line)
        ]
        assert not found, "state offsets outside channel.StateLayout:\n" + "\n".join(found)
