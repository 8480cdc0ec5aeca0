"""The CCA-selection game: NE enumeration, dynamics, group game."""

import pytest

from repro.core.game import GroupGame, ThroughputTable, bisect_nash


def linear_table(n=10, capacity=100.0, crossing=6):
    """A synthetic game shaped like Figure 6: BBR per-flow advantage
    decreases in k and crosses the fair-share line at ``crossing``."""
    fair = capacity / n
    lambda_a, lambda_b = [], []
    for k in range(n + 1):
        adv = (crossing - k) * 1.0
        b = fair + adv if k > 0 else 0.0
        total_b = b * k
        a = (capacity - total_b) / (n - k) if k < n else 0.0
        lambda_a.append(a)
        lambda_b.append(b)
    return ThroughputTable(n_flows=n, lambda_a=lambda_a, lambda_b=lambda_b)


def equilibria(table, tolerance=0.0):
    """The NE challenger counts of a played-out table."""
    return [k for (k,) in table.game(tolerance).nash_equilibria()]


def per_state(fn):
    """A plain ``fn(k) -> (a, b)`` as a one-group round payoff."""
    return lambda *states: [[fn(k)] for (k,) in states]


class TestThroughputTable:
    def test_length_validation(self):
        with pytest.raises(ValueError):
            ThroughputTable(n_flows=3, lambda_a=[1, 2], lambda_b=[1, 2])

    def test_from_function(self):
        rounds = []

        def payoff(*states):
            rounds.append(states)
            return [[(4 - k, k)] for (k,) in states]

        table = ThroughputTable.from_game(GroupGame([4], payoff))
        assert table.lambda_a == [4, 3, 2, 1, 0]
        assert table.lambda_b == [0, 1, 2, 3, 4]
        assert rounds == [((0,), (1,), (2,), (3,), (4,))]  # One round.

    def test_is_nash_bounds_checked(self):
        game = linear_table().game()
        for state in ((-1,), (11,), (), (3, 3)):
            with pytest.raises(ValueError, match="outside the game"):
                game.is_nash(state)
            with pytest.raises(ValueError, match="outside the game"):
                game.best_response_path(state)

    def test_interior_ne_found(self):
        found = equilibria(linear_table(crossing=6))
        assert found, "an NE must exist (§4.1)"
        assert all(4 <= k <= 8 for k in found)

    def test_ne_condition_definition(self):
        """§4.4: at an NE, no BBR flow gains from switching to CUBIC and
        no CUBIC flow gains from switching to BBR."""
        table = linear_table()
        for k in equilibria(table):
            if k > 0:
                assert table.lambda_b[k] >= table.lambda_a[k - 1]
            if k < table.n_flows:
                assert table.lambda_a[k] >= table.lambda_b[k + 1]

    def test_all_bbr_ne_when_always_advantaged(self):
        """Case 1 of §4.1: if AB never crosses fair share, the NE is
        all-BBR (point B)."""
        n = 10
        table = linear_table(n=n, crossing=15)
        assert equilibria(table) == [n]

    def test_tolerance_widens_ne_set(self):
        table = linear_table()
        strict = set(equilibria(table))
        loose = set(equilibria(table, tolerance=2.0))
        assert strict < loose

    def test_best_response_converges_to_ne(self):
        game = linear_table(crossing=6).game()
        for start in (0, 3, 10):
            path = game.best_response_path((start,))
            assert game.is_nash(path[-1])

    def test_best_response_moves_toward_crossing(self):
        game = linear_table(crossing=6).game()
        path = game.best_response_path((0,))
        assert path == sorted(path)  # Monotone rightward from 0.

    def test_best_response_step_at_ne_is_fixed_point(self):
        game = linear_table().game()
        ne = game.nash_equilibria()[0]
        assert game.best_response_step(ne) == ne


class TestNeExistenceConditions:
    def test_bbr_like_game_satisfies_both(self):
        from repro.core.game import ne_existence_conditions

        table = linear_table(n=10, capacity=100.0, crossing=6)
        # Point B: the all-B distribution splits the link fairly.
        table.lambda_b[-1] = 10.0
        flags = ne_existence_conditions(table, capacity=100.0)
        assert flags["disproportionate_share"]
        assert flags["fills_link_alone"]
        assert flags["ne_expected"]
        assert equilibria(table)  # The conclusion actually holds.

    def test_copa_like_game_fails_condition_one(self):
        from repro.core.game import ne_existence_conditions

        n, capacity = 10, 100.0
        fair = capacity / n
        # Always below fair share when mixed; fair share when alone.
        lambda_b = [0.0] + [fair * 0.3] * (n - 1) + [fair]
        lambda_a = [
            (capacity - b * k) / (n - k) if k < n else 0.0
            for k, b in enumerate(lambda_b)
        ]
        table = ThroughputTable(
            n_flows=n, lambda_a=lambda_a, lambda_b=lambda_b
        )
        flags = ne_existence_conditions(table, capacity)
        assert not flags["disproportionate_share"]
        assert flags["fills_link_alone"]
        assert not flags["ne_expected"]

    def test_validation(self):
        from repro.core.game import ne_existence_conditions

        with pytest.raises(ValueError):
            ne_existence_conditions(linear_table(), capacity=0.0)


class TestBisectNash:
    def test_matches_exhaustive_enumeration(self):
        for crossing in (2, 5, 8):
            table = linear_table(crossing=crossing)
            fast, _evaluated = bisect_nash(table.game())
            assert set(fast) == set(equilibria(table))

    def test_uses_logarithmic_evaluations(self):
        calls = []
        table = linear_table(n=64, crossing=40)

        def fn(k):
            calls.append(k)
            return (table.lambda_a[k], table.lambda_b[k])

        bisect_nash(GroupGame([64], per_state(fn)))
        assert len(calls) == len(set(calls))  # No state asked twice.
        assert len(calls) <= 16  # ≪ 65 exhaustive evaluations.

    def test_extreme_all_bbr(self):
        table = linear_table(n=10, crossing=100)
        found, _ = bisect_nash(table.game())
        assert found == [10]


class TestGroupGame:
    def make_game(self, sizes=(2, 2), favour_group=0):
        """Strategy B is better in ``favour_group`` until half the group
        switched; elsewhere strategy A dominates."""

        def payoff(state):
            out = []
            for g, size in enumerate(sizes):
                k = state[g]
                if g == favour_group:
                    b = 10.0 - 4.0 * k
                    a = 5.0
                else:
                    b = 1.0
                    a = 5.0
                out.append((a, b))
            return out

        return GroupGame(
            sizes, lambda *states: [payoff(state) for state in states]
        )

    def test_states_enumeration(self):
        game = self.make_game(sizes=(2, 3))
        states = list(game.states())
        assert len(states) == 3 * 4
        assert (0, 0) in states and (2, 3) in states

    def test_ne_in_favoured_group_only(self):
        game = self.make_game(sizes=(2, 2), favour_group=0)
        found = game.nash_equilibria()
        assert found
        for state in found:
            assert state[1] == 0  # Group 1 never switches.
            # Group 0 stops where switching stops paying: b(k+1) ≤ a.
            assert state[0] in (1, 2)

    def test_best_response_reaches_ne(self):
        game = self.make_game()
        path = game.best_response_path((0, 0))
        assert game.is_nash(path[-1])

    def test_payoffs_cached(self):
        calls = []

        def payoff(*states):
            calls.extend(states)
            return [[(1.0, 1.0), (1.0, 1.0)] for _ in states]

        game = GroupGame([2, 2], payoff)
        game.is_nash((1, 1))
        game.is_nash((1, 1))
        game.payoffs((1, 1), (1, 1), (0, 1))
        assert len(calls) == len(set(calls)) == 5
        assert set(game.known) == set(calls)

    def test_group_validation(self):
        for sizes in ([], [2, 0], [-1]):
            with pytest.raises(ValueError, match="size >= 1"):
                GroupGame(sizes, lambda *states: [])

    def test_settle_keeps_the_walk_ends_that_are_ne(self):
        game = self.make_game()
        ends = game.settle([(0, 0), (2, 2), (1, 0)])
        assert ends == sorted(set(ends))
        assert ends and all(game.is_nash(end) for end in ends)
        assert ends == [game.best_response_path((0, 0))[-1]]

    def test_cycling_walk_is_cut_at_the_first_revisit(self):
        # Matching pennies between two one-flow groups: the flow of
        # group 0 wants to differ from group 1's, which wants to match.
        def payoff(*states):
            return [
                [(float(a != b),) * 2, (float(a == b),) * 2]
                for a, b in states
            ]

        game = GroupGame([1, 1], payoff)
        assert game.nash_equilibria() == []
        path = game.best_response_path((0, 0))
        assert len(path) == 5 and path[-1] == path[0]
        assert len(set(path)) == 4
        # No walk settles: the smallest end is the best effort.
        assert game.settle([(0, 0), (1, 1)]) == [min(game.states())]


class TestNeExistenceBoundaries:
    def test_endpoints_do_not_count_as_disproportionate(self):
        # Condition 1 quantifies over *mixed* distributions (1..n-1):
        # a challenger that only reaches fair share when it has the
        # whole link to itself shows no disproportionate share.
        from repro.core.game import ne_existence_conditions

        n, capacity = 10, 100.0
        fair = capacity / n
        lambda_b = [0.0] + [fair * 0.5] * (n - 1) + [fair * 2]
        lambda_a = [
            (capacity - lambda_b[k] * k) / (n - k) if k < n else 0.0
            for k in range(n + 1)
        ]
        flags = ne_existence_conditions(
            ThroughputTable(
                n_flows=n, lambda_a=lambda_a, lambda_b=lambda_b
            ),
            capacity,
        )
        assert not flags["disproportionate_share"]
        assert flags["fills_link_alone"]
        assert not flags["ne_expected"]

    def test_fills_link_alone_boundary_is_inclusive(self):
        # The 80%-utilization cut is >=: exactly 0.8 x fair passes,
        # epsilon below fails.
        from repro.core.game import ne_existence_conditions

        n, capacity = 10, 100.0
        fair = capacity / n

        def table_with_all_b(value):
            lambda_b = [0.0] + [fair * 1.5] * (n - 1) + [value]
            lambda_a = [
                (capacity - lambda_b[k] * k) / (n - k) if k < n else 0.0
                for k in range(n + 1)
            ]
            return ThroughputTable(
                n_flows=n, lambda_a=lambda_a, lambda_b=lambda_b
            )

        at = ne_existence_conditions(
            table_with_all_b(0.8 * fair), capacity
        )
        below = ne_existence_conditions(
            table_with_all_b(0.8 * fair - 1e-9), capacity
        )
        assert at["fills_link_alone"] and at["ne_expected"]
        assert not below["fills_link_alone"]
        assert not below["ne_expected"]


class TestBisectNashBracketFailure:
    def test_no_bracket_when_challenger_never_wins(self):
        # advantage(1) <= 0 means the bisection bracket never forms:
        # the search must fall back to the all-A corner, not crash.
        n, capacity = 12, 120.0
        fair = capacity / n
        lambda_b = [0.0] + [fair * 0.4] * n
        lambda_a = [
            (capacity - lambda_b[k] * k) / (n - k) if k < n else 0.0
            for k in range(n + 1)
        ]
        table = ThroughputTable(
            n_flows=n, lambda_a=lambda_a, lambda_b=lambda_b
        )
        calls = []

        def fn(k):
            calls.append(k)
            return (table.lambda_a[k], table.lambda_b[k])

        found, evaluated = bisect_nash(GroupGame([n], per_state(fn)))
        assert found == [0]
        # The corner fallback inspects a constant-size neighborhood.
        assert len(evaluated) <= 5
        assert set(calls) == set(evaluated)
        assert evaluated[1] == (table.lambda_a[1], table.lambda_b[1])

    def test_tiny_games_enumerate_exhaustively(self):
        # n <= 2 skips bisection entirely and checks every k.
        fn = lambda k: (1.0, 2.0 if k else 0.0)  # noqa: E731
        found, evaluated = bisect_nash(GroupGame([2], per_state(fn)))
        assert found == [2]
        assert set(evaluated) == {0, 1, 2}
