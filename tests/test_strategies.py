import pytest

from locgame import (
    DagDecomposition,
    Digraph,
    PathDecomposition,
    optimal_robber,
    play,
    rotation_tournament,
    sc_tight,
    strong_components,
    transitive_tournament,
)
from locgame.digraph import INF
from locgame.game import GameTranscript, Round
from locgame.strategies import (
    BagSweep,
    StrategyError,
    dag_decomp_sweep,
    dag_sweep,
    path_sweep,
    rotation_strategy,
    sc_composite,
)
from locgame.structure import CyclicGraphError


def cycle3():
    return Digraph(3, [(0, 1), (1, 2), (2, 0)])


def run(g, strategy, max_rounds):
    return play(g, strategy, optimal_robber(g, strategy.cops), max_rounds=max_rounds)


class TestDagSweep:
    def test_transitive_t4(self):
        g = transitive_tournament(4)
        transcript = run(g, dag_sweep(g), 4)
        assert transcript.outcome.captured and transcript.outcome.rounds <= 4

    def test_single_vertex(self):
        g = Digraph(1, [])
        transcript = run(g, dag_sweep(g), 1)
        assert transcript.outcome.captured and transcript.outcome.rounds == 1

    def test_directed_path(self):
        g = Digraph(6, [(i, i + 1) for i in range(5)])
        transcript = run(g, dag_sweep(g), 6)
        assert transcript.outcome.captured

    def test_rejects_cycles(self):
        with pytest.raises(CyclicGraphError):
            dag_sweep(cycle3())

    def test_probes_follow_topological_order(self):
        g = Digraph(4, [(2, 0), (0, 1), (1, 3)])
        strategy = dag_sweep(g)
        assert strategy.bags == [(2,), (0,), (1,), (3,)]


class TestPathSweep:
    def test_transitive_single_cop(self):
        g = transitive_tournament(4)
        strategy = path_sweep(g, PathDecomposition([{i} for i in range(4)]))
        assert strategy.cops == 1
        transcript = run(g, strategy, 4)
        assert transcript.outcome.captured

    def test_cycle_two_cops(self):
        g = cycle3()
        strategy = path_sweep(g, PathDecomposition([{0, 1}, {0, 2}]))
        assert strategy.cops == 2
        transcript = run(g, strategy, 2)
        assert transcript.outcome.captured

    @pytest.mark.parametrize(
        "g, bags, swept",
        [
            (cycle3(), [set(), {0, 1}, {0, 2}, set()], [(0, 1), (0, 2)]),
            (cycle3(), [set(), {0, 1, 2}], [(0, 1, 2)]),
            (transitive_tournament(3), [{0}, set(), {1}, {2}], [(0,), (1,), (2,)]),
        ],
    )
    def test_skips_empty_bags(self, g, bags, swept):
        strategy = path_sweep(g, PathDecomposition(bags))
        assert strategy.bags == swept
        assert strategy.cops == max(len(b) for b in bags)
        transcript = run(g, strategy, len(swept))
        assert transcript.outcome.captured

    def test_rejects_invalid_decomposition(self):
        with pytest.raises(ValueError, match="invalid path decomposition"):
            path_sweep(cycle3(), PathDecomposition([{0}, {1}, {2}]))


class TestDagDecompSweep:
    def test_identity_bags_on_dag(self):
        g = transitive_tournament(5)
        strategy = dag_decomp_sweep(g, DagDecomposition(g, [{v} for v in range(5)]))
        assert strategy.cops == 1
        transcript = run(g, strategy, 5)
        assert transcript.outcome.captured

    def test_single_bag_cycle(self):
        g = cycle3()
        dd = DagDecomposition(Digraph(1, []), [{0, 1, 2}])
        strategy = dag_decomp_sweep(g, dd)
        assert strategy.cops == 3
        transcript = run(g, strategy, 1)
        assert transcript.outcome.captured and transcript.outcome.rounds == 1

    def test_sc_tight_handcrafted(self):
        g = sc_tight(1, 1)
        dd = DagDecomposition(Digraph(2, [(0, 1)]), [{0, 1, 2}, {3, 4, 5}])
        strategy = dag_decomp_sweep(g, dd)
        assert strategy.cops == 3
        transcript = run(g, strategy, 2)
        assert transcript.outcome.captured


class TestScComposite:
    def test_budget_formula(self):
        g = sc_tight(3, 1)
        strategy = sc_composite(g)
        # each layer needs a 3-vertex basis; the condensation is a single arc
        assert strategy.cops == 4

    def test_sc_tight_captured_within_phases(self):
        g = sc_tight(3, 1)
        transcript = run(g, sc_composite(g), 2)
        assert transcript.outcome.captured

    def test_transitive_t4(self):
        g = transitive_tournament(4)
        strategy = sc_composite(g)
        assert strategy.cops == 4  # singleton basis + three children
        transcript = run(g, strategy, 4)
        assert transcript.outcome.captured

    def test_two_joined_cycles_two_cops(self):
        g = Digraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)])
        strategy = sc_composite(g)
        assert strategy.cops == 2
        transcript = run(g, strategy, 2)
        assert transcript.outcome.captured

    def test_multi_phase_never_probes_cleared_components(self):
        # source vertex feeding a 5-vertex circulant: the first phase cannot
        # resolve the big component, so a second phase must run
        t5 = rotation_tournament(2)
        arcs = [(1 + u, 1 + v) for (u, v) in t5.arcs]
        arcs += [(0, b) for b in range(1, 6)]
        g = Digraph(6, arcs)
        strategy = sc_composite(g)
        assert isinstance(strategy, BagSweep)
        assert strategy.cops == 3  # basis of the circulant (2) + one child marker
        transcript = run(g, strategy, 2)
        assert transcript.outcome.captured
        assert transcript.outcome.rounds == 2
        assert [r.probe for r in transcript.rounds] == strategy.bags[:2]
        scc = strong_components(g)
        seen_phases = [
            {scc.component_of[v] for v in r.probe} for r in transcript.rounds
        ]
        # once a phase ends its component is never probed again
        for earlier, later in zip(seen_phases, seen_phases[1:]):
            assert min(earlier) < min(later)


class TestScCompositeChecks:
    # two 3-cycles joined by the arc 0 -> 3: bags (0, 3) then (3,), where
    # vertex 3 is the first component's marker and the second's basis
    def strategy(self):
        g = Digraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)])
        strategy = sc_composite(g)
        assert strategy.bags == [(0, 3), (3,)]
        assert strategy.bases == [(0,), (3,)]
        return strategy

    @staticmethod
    def transcript(*rounds):
        return GameTranscript(
            [
                Round(i + 1, probe, vector, frozenset(), frozenset())
                for i, (probe, vector) in enumerate(rounds)
            ]
        )

    def test_probe_off_schedule(self):
        with pytest.raises(StrategyError, match="diverge from the schedule"):
            self.strategy().next(self.transcript(((1, 3), (1, INF))))

    def test_finite_basis_with_silent_markers(self):
        with pytest.raises(StrategyError, match="should have localized the robber"):
            self.strategy().next(self.transcript(((0, 3), (1, INF))))

    def test_more_rounds_than_components(self):
        strategy = self.strategy()
        first = ((0, 3), (INF, 1))  # the marker reads finite: robber moved on
        assert strategy.next(self.transcript(first)) == (3,)
        with pytest.raises(StrategyError, match="all bags swept without capture"):
            strategy.next(self.transcript(first, ((3,), (INF,))))


class TestRotationStrategy:
    @pytest.mark.parametrize("m,bound", [(1, 1), (2, 2), (3, 3), (4, 2)])
    def test_captures_within_schedule(self, m, bound):
        g = rotation_tournament(m)
        strategy = rotation_strategy(m)
        assert strategy.cops == m // 2 + 1
        transcript = run(g, strategy, bound)
        assert transcript.outcome.captured

    def test_one_cop_short_evades(self):
        m = 2
        g = rotation_tournament(m)
        strategy = rotation_strategy(m, cops=1)
        transcript = play(g, strategy, optimal_robber(g, 1), max_rounds=5 * g.n)
        assert not transcript.outcome.captured

    def test_rejects_overbudget(self):
        with pytest.raises(ValueError):
            rotation_strategy(2, cops=3)

    def test_first_probe_every_fourth_vertex(self):
        strategy = rotation_strategy(3)
        from locgame import GameTranscript

        assert strategy.next(GameTranscript()) == (0, 4)

    def test_window_start_prefers_tightest_arc(self):
        from locgame.strategies import _window_start

        assert _window_start([1, 2, 3], 7) == 1
        assert _window_start([6, 0, 1], 7) == 6  # wraps around
        assert _window_start([4], 9) == 4
        # antipodal tie: smallest start wins
        assert _window_start([0, 3], 6) == 0


class TestDeterministicReplay:
    def test_fresh_strategy_reproduces_probes(self):
        # strategies derive everything from the transcript, so replaying a
        # finished game through a new instance yields the same probes
        m = 3
        g = rotation_tournament(m)
        transcript = run(g, rotation_strategy(m), 3)
        assert transcript.outcome.captured
        from locgame import GameTranscript

        fresh = rotation_strategy(m)
        prefix = GameTranscript()
        for r in transcript.rounds:
            assert fresh.next(prefix) == r.probe
            prefix.rounds.append(r)

    def test_next_is_idempotent(self):
        g = sc_tight(3, 1)
        strategy = sc_composite(g)
        transcript = run(g, sc_composite(g), 2)
        from locgame import GameTranscript

        prefix = GameTranscript()
        for r in transcript.rounds:
            assert strategy.next(prefix) == strategy.next(prefix) == r.probe
            prefix.rounds.append(r)
