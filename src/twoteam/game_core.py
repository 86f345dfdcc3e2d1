"""Polymatrix games, two-team structure validation, and Nash-gap checking.

Players are the nodes of an undirected graph; each edge carries one payoff
matrix per direction, and a player's utility is the sum of the bilinear
payoffs over incident edges.  Absent edges act as all-zero matrices.  The
two-team shape (coordination games inside a team, zero-sum games across
teams, optionally no edges inside the adversary team) is a checkable
property of a game, not a constraint of the representation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

# Entrywise tolerance for structural matrix identities. Inputs are exact
# rationals in practice; this only absorbs file-format round-trips.
ENTRY_TOL = 1e-12

# Probability vectors within this distance of valid are renormalized on
# ingestion; anything further off is rejected.
PROFILE_TOL = 1e-9


class StructuralError(ValueError):
    """Shapes, indices or team sets inconsistent with the declared game."""


class PolymatrixGame:
    """Payoff storage for a polymatrix game.

    Edges are keyed by unordered player pair and store both directed
    matrices.  ``payoff(i, j)`` returns A^{i,j} with shape (S_i, S_j),
    falling back to a zero matrix for absent edges.
    """

    def __init__(self, strategy_counts):
        self.strategy_counts = tuple(int(s) for s in strategy_counts)
        if not self.strategy_counts or any(s <= 0 for s in self.strategy_counts):
            raise StructuralError("strategy counts must be positive")
        self._edges: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}

    @property
    def num_players(self) -> int:
        return len(self.strategy_counts)

    def _check_player(self, i) -> int:
        i = int(i)
        if not 0 <= i < self.num_players:
            raise StructuralError(f"player index {i} out of range")
        return i

    def add_edge(self, i, j, a_ij, a_ji) -> None:
        """Attach the directed payoff matrices for the pair {i, j}."""
        i, j = self._check_player(i), self._check_player(j)
        if i == j:
            raise StructuralError(f"self edge on player {i}")
        a_ij = np.asarray(a_ij, dtype=float)
        a_ji = np.asarray(a_ji, dtype=float)
        si, sj = self.strategy_counts[i], self.strategy_counts[j]
        if a_ij.shape != (si, sj) or a_ji.shape != (sj, si):
            raise StructuralError(
                f"edge {{{i},{j}}}: expected shapes {(si, sj)} and {(sj, si)}, "
                f"got {a_ij.shape} and {a_ji.shape}"
            )
        if not (np.isfinite(a_ij).all() and np.isfinite(a_ji).all()):
            raise StructuralError(f"edge {{{i},{j}}}: non-finite payoff entries")
        if i < j:
            self._edges[(i, j)] = (a_ij, a_ji)
        else:
            self._edges[(j, i)] = (a_ji, a_ij)

    def edge_pairs(self):
        """Stored edges as sorted (i, j) pairs with i < j."""
        return sorted(self._edges)

    def has_edge(self, i, j) -> bool:
        i, j = self._check_player(i), self._check_player(j)
        return (min(i, j), max(i, j)) in self._edges

    def payoff(self, i, j) -> np.ndarray:
        """A^{i,j}; a zero matrix when the edge is absent."""
        i, j = self._check_player(i), self._check_player(j)
        key = (min(i, j), max(i, j))
        if key not in self._edges:
            return np.zeros((self.strategy_counts[i], self.strategy_counts[j]))
        fwd, bwd = self._edges[key]
        return fwd if i < j else bwd

    def neighbors(self, i):
        i = self._check_player(i)
        return sorted(
            (b if a == i else a) for (a, b) in self._edges if i in (a, b)
        )

    def max_abs_payoff(self) -> float:
        vals = [float(np.abs(m).max()) for pair in self._edges.values() for m in pair]
        return max(vals, default=0.0)

    def sum_abs_payoffs(self) -> float:
        """max(1, sum of |entries| over one direction of every edge).

        Plays the role of the coefficient bound Z for game-level tolerances.
        """
        total = sum(float(np.abs(fwd).sum()) for fwd, _ in self._edges.values())
        return max(1.0, total)


@dataclass(frozen=True)
class TwoTeamStructure:
    """A split of the players into team X and team Y.

    ``independent_adversaries`` additionally asserts that team Y has no
    internal edges.
    """

    team_x: tuple[int, ...]
    team_y: tuple[int, ...]
    independent_adversaries: bool = False

    def __post_init__(self):
        object.__setattr__(self, "team_x", tuple(sorted(int(i) for i in self.team_x)))
        object.__setattr__(self, "team_y", tuple(sorted(int(i) for i in self.team_y)))
        if len(set(self.team_x)) < len(self.team_x) or len(set(self.team_y)) < len(self.team_y):
            raise StructuralError("a team lists a player twice")
        if set(self.team_x) & set(self.team_y):
            raise StructuralError("teams must be disjoint")

    def check_partition(self, game: PolymatrixGame) -> None:
        if set(self.team_x) | set(self.team_y) != set(range(game.num_players)):
            raise StructuralError("teams must partition the player set")


def random_two_team(n_x: int, n_y: int, m: int, independent: bool, rng):
    """A two-team game of m-action players with payoffs uniform on [-1, 1].

    Draws team X's coordination edges, then the zero-sum cross edges, then
    (unless ``independent``) team Y's coordination edges.  Returns (game,
    structure).
    """
    game = PolymatrixGame([m] * (n_x + n_y))
    xs, ys = range(n_x), range(n_x, n_x + n_y)
    blocks = [(itertools.combinations(xs, 2), 1.0), (itertools.product(xs, ys), -1.0)]
    if not independent:
        blocks.append((itertools.combinations(ys, 2), 1.0))
    for pairs, sign in blocks:
        for i, j in pairs:
            mat = rng.uniform(-1.0, 1.0, size=(m, m))
            game.add_edge(i, j, mat, sign * mat.T)
    return game, TwoTeamStructure(tuple(xs), tuple(ys), independent_adversaries=independent)


class StrategyProfile:
    """One mixed strategy per player.

    Vectors within PROFILE_TOL of a probability distribution are
    renormalized; anything worse is rejected.
    """

    def __init__(self, strategies):
        cleaned = []
        for idx, v in enumerate(strategies):
            v = np.asarray(v, dtype=float)
            if v.ndim != 1 or v.size == 0:
                raise ValueError(f"strategy {idx} must be a nonempty vector")
            if not np.isfinite(v).all():
                raise ValueError(f"strategy {idx} has non-finite entries")
            if v.min() < -PROFILE_TOL:
                raise ValueError(f"strategy {idx} has negative probability {v.min()}")
            s = v.sum()
            if abs(s - 1.0) > PROFILE_TOL:
                raise ValueError(f"strategy {idx} sums to {s}, not 1")
            v = np.maximum(v, 0.0)
            cleaned.append(v / v.sum())
        self.strategies = cleaned

    @property
    def num_players(self) -> int:
        return len(self.strategies)

    def __getitem__(self, i) -> np.ndarray:
        return self.strategies[i]

    def check_shape(self, game: PolymatrixGame) -> None:
        if self.num_players != game.num_players:
            raise StructuralError("profile has wrong number of players")
        for i, v in enumerate(self.strategies):
            if len(v) != game.strategy_counts[i]:
                raise StructuralError(f"strategy {i} has wrong length {len(v)}")


@dataclass(frozen=True)
class EntryViolation:
    i: int
    j: int
    row: int
    col: int
    condition: str
    error: float


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    violations: tuple[EntryViolation, ...]


@dataclass(frozen=True)
class NashReport:
    """Per-player regret (best-response value minus achieved utility)."""

    regrets: tuple[float, ...]
    max_regret: float
    epsilon: float
    passed: bool


def validate_two_team(game: PolymatrixGame, structure: TwoTeamStructure) -> ValidationReport:
    """Check the two-team payoff identities entrywise.

    Intra-team pairs must be coordination games (A^{i,i'} = A^{i',i}^T),
    cross-team pairs zero-sum (A^{i,j} = -A^{j,i}^T), and, when independent
    adversaries are claimed, every Y-Y matrix must vanish.  Dimension or
    index problems raise StructuralError; payoff mismatches are reported as
    violations, one per offending entry.
    """
    structure.check_partition(game)
    in_x = set(structure.team_x)
    in_y = set(structure.team_y)
    violations = []

    def record(diff, i, j, condition):
        rows, cols = np.nonzero(np.abs(diff) > ENTRY_TOL)
        for r, c in zip(rows, cols):
            violations.append(
                EntryViolation(i, j, int(r), int(c), condition, float(abs(diff[r, c])))
            )

    for (i, j) in game.edge_pairs():
        a_ij = game.payoff(i, j)
        a_ji = game.payoff(j, i)
        same_team = (i in in_x and j in in_x) or (i in in_y and j in in_y)
        if same_team:
            record(a_ij - a_ji.T, i, j, "coordination")
            if structure.independent_adversaries and i in in_y:
                record(a_ij, i, j, "independence")
                record(a_ji.T, j, i, "independence")
        else:
            record(a_ij + a_ji.T, i, j, "zero-sum")

    return ValidationReport(passed=not violations, violations=tuple(violations))


def utility(game: PolymatrixGame, player: int, profile: StrategyProfile) -> float:
    """Sum of x_i^T A^{i,j} x_j over edges incident to the player."""
    profile.check_shape(game)
    player = game._check_player(player)
    x_i = profile[player]
    total = 0.0
    for j in game.neighbors(player):
        total += float(x_i @ game.payoff(player, j) @ profile[j])
    return total


def payoff_vector(game: PolymatrixGame, player: int, profile: StrategyProfile) -> np.ndarray:
    """Expected payoff of each pure strategy of ``player`` against the rest."""
    profile.check_shape(game)
    player = game._check_player(player)
    v = np.zeros(game.strategy_counts[player])
    for j in game.neighbors(player):
        v += game.payoff(player, j) @ profile[j]
    return v


def best_response(game: PolymatrixGame, player: int, profile: StrategyProfile):
    """(pure strategy index, value) of the best pure reply; lowest index wins ties."""
    v = payoff_vector(game, player, profile)
    k = int(np.argmax(v))
    return k, float(v[k])


def verify_epsilon_nash(game: PolymatrixGame, profile: StrategyProfile, epsilon: float) -> NashReport:
    """Check that no player gains more than epsilon by deviating."""
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    regrets = []
    for i in range(game.num_players):
        v = payoff_vector(game, i, profile)
        regrets.append(float(v.max() - v @ profile[i]))
    max_regret = max(regrets)
    return NashReport(
        regrets=tuple(regrets),
        max_regret=max_regret,
        epsilon=float(epsilon),
        passed=max_regret <= epsilon,
    )


def common_utility(game: PolymatrixGame, structure: TwoTeamStructure, profile: StrategyProfile) -> float:
    """U(x, y) = -sum_{i<i' in X} x_i A^{i,i'} x_{i'} - sum_{i in X, j in Y} x_i A^{i,j} y_j.

    Team X minimizes U, team Y maximizes it.  Refuses games that fail
    two-team validation.
    """
    report = validate_two_team(game, structure)
    if not report.passed:
        raise ValueError(
            f"game is not a valid two-team game ({len(report.violations)} entry violations)"
        )
    profile.check_shape(game)
    in_x = set(structure.team_x)
    total = 0.0
    for (i, j) in game.edge_pairs():
        if i in in_x:
            total -= float(profile[i] @ game.payoff(i, j) @ profile[j])
        elif j in in_x:
            total -= float(profile[j] @ game.payoff(j, i) @ profile[i])
        # Y-Y edges do not enter U.
    return total


# ---------------------------------------------------------------------------
# File format: JSON-compatible dictionaries.


def game_to_dict(game: PolymatrixGame, structure: TwoTeamStructure | None = None) -> dict:
    out = {
        "strategy_counts": list(game.strategy_counts),
        "edges": [
            {
                "i": i,
                "j": j,
                "a_ij": game.payoff(i, j).tolist(),
                "a_ji": game.payoff(j, i).tolist(),
            }
            for (i, j) in game.edge_pairs()
        ],
    }
    if structure is not None:
        out["teams"] = {
            "x": list(structure.team_x),
            "y": list(structure.team_y),
            "independent": bool(structure.independent_adversaries),
        }
    return out


def is_json_numbers(value) -> bool:
    """True when ``value`` is a JSON number (an int or a float, not a bool
    or a string) or a list, nested to any depth, of JSON numbers."""
    pending = [value]
    while pending:
        v = pending.pop()
        if type(v) is list:
            pending.extend(v)
        elif type(v) not in (int, float):
            return False
    return True


def _json_ints(values, what: str) -> list:
    values = list(values)
    if any(type(v) is not int for v in values):
        raise StructuralError(f"malformed game data: {what} must be integers, got {values!r}")
    return values


def game_from_dict(data: dict):
    """Returns (game, structure or None)."""
    try:
        game = PolymatrixGame(_json_ints(data["strategy_counts"], "strategy_counts"))
        for e in data.get("edges", []):
            i, j = _json_ints((e["i"], e["j"]), "edge indices")
            if game.has_edge(i, j):
                raise StructuralError(f"malformed game data: edge {{{i},{j}}} listed twice")
            if not (is_json_numbers(e["a_ij"]) and is_json_numbers(e["a_ji"])):
                raise StructuralError(
                    f"malformed game data: edge {{{i},{j}}}: payoffs must be JSON numbers"
                )
            game.add_edge(i, j, e["a_ij"], e["a_ji"])
        structure = None
        if "teams" in data:
            t = data["teams"]
            team_x, team_y = _json_ints(t["x"], "teams.x"), _json_ints(t["y"], "teams.y")
            independent = t.get("independent", False)
            if not isinstance(independent, bool):
                raise StructuralError(
                    f"malformed game data: teams.independent must be true or false, got {independent!r}"
                )
            structure = TwoTeamStructure(team_x, team_y, independent_adversaries=independent)
    except (KeyError, TypeError) as exc:
        raise StructuralError(f"malformed game data: {exc}") from exc
    if structure is not None:
        structure.check_partition(game)
    return game, structure


def profile_to_dict(profile: StrategyProfile) -> dict:
    return {"strategies": [v.tolist() for v in profile.strategies]}


def profile_from_dict(data: dict) -> StrategyProfile:
    try:
        if not is_json_numbers(data["strategies"]):
            raise StructuralError("malformed profile data: strategies must be JSON numbers")
        return StrategyProfile(data["strategies"])
    except (KeyError, TypeError) as exc:
        raise StructuralError(f"malformed profile data: {exc}") from exc
