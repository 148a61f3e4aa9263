"""Canonical JSON documents for games, strategies, beliefs and reports.

Saving always canonicalizes: sorted keys, two-space indent, lowest-terms
rationals rendered as "num/den" strings, trailing newline. A load/save round
trip is therefore byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
from fractions import Fraction
from typing import Any, IO

from .beliefs import BeliefSystem
from .errors import GameFileError
from .trees import (
    DecisionNode,
    GameTree,
    History,
    InformationSet,
    Node,
    StrategyProfile,
    TerminalNode,
    history_from_path,
    path_of,
    rational,
)

GAME_FORMAT = "game/1"
STRATEGY_FORMAT = "strategy/1"


def _rats(items: list, where: str, parsed: dict[str, Fraction]) -> tuple[Fraction, ...]:
    """`items` as rationals. `parsed` maps each string already read to its value, so
    a repeated string is parsed once; a failure is never kept, it raises here."""
    out = []
    for text in items:
        value = parsed.get(text) if type(text) is str else None
        if value is None:
            try:
                value = rational(text)
            except (TypeError, ValueError, ZeroDivisionError) as exc:
                raise GameFileError(f"{where}: bad rational {text!r} ({exc})")
            if type(text) is str:
                parsed[text] = value
        out.append(value)
    return tuple(out)


_KINDS = {int: "an integer", str: "a string", list: "a list", dict: "an object"}


def _typed(value: Any, kind: type, where: str) -> Any:
    if isinstance(value, bool) or not isinstance(value, kind):
        raise GameFileError(f"{where}: must be {_KINDS[kind]}, got {value!r}")
    return value


def _field(record: dict, name: str, where: str, kind: type) -> Any:
    """`record[name]`, which must be a `kind`; errors name `where.name`."""
    if name not in record:
        raise GameFileError(f"{where or 'game'}: missing field {name!r}")
    return _typed(record[name], kind, f"{where}.{name}" if where else name)


def _labels(record: dict, name: str, where: str) -> tuple[str, ...]:
    items = _field(record, name, where, list)
    if not all(type(x) is str for x in items):
        for i, x in enumerate(items):
            _typed(x, str, f"{where}.{name}[{i}]")
    return tuple(items)


def game_to_doc(game: GameTree, beliefs: BeliefSystem | None = None) -> dict:
    texts: dict[int, str] = {}  # by id: the arguments keep every rational alive

    def strs(values: tuple) -> list[str]:
        return [texts.get(id(r)) or texts.setdefault(id(r), str(r)) for r in values]

    nodes: dict[str, dict] = {}
    for h in sorted(game.nodes):
        node = game.nodes[h]
        if isinstance(node, TerminalNode):
            nodes[path_of(h)] = {
                "payments": strs(node.payments),
                "answer_bit": node.answer_bit,
            }
        else:
            record: dict[str, Any] = {
                "player": node.player,
                "actions": list(node.actions),
            }
            if node.dist is not None:
                record["dist"] = strs(node.dist)
            nodes[path_of(h)] = record
    doc: dict[str, Any] = {
        "format": GAME_FORMAT,
        "provers": game.provers,
        "nodes": nodes,
        "info_sets": [
            {
                "owner": iset.owner,
                "members": [path_of(m) for m in iset.members],
                "actions": list(iset.actions),
            }
            for iset in game.sorted_sets
        ],
    }
    if beliefs is not None:
        doc["beliefs"] = {
            key: strs(probs) for key, probs in beliefs.distributions
        }
    if game.meta:
        try:
            doc["meta"] = _plain(game.meta)
        except RecursionError:  # a `meta` that parsed can still nest past `_plain`'s limit
            raise GameFileError("meta nested too deeply to render") from None
    return doc


def _plain(value: Any) -> Any:
    """`value` as JSON-ready data: rationals as strings, tuples as lists, dict keys
    as strings and dataclasses as objects of their fields."""
    if isinstance(value, (str, int)):  # the common leaves skip the tests below
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    return value


def game_from_doc(doc: Any) -> tuple[GameTree, BeliefSystem | None]:
    if not isinstance(doc, dict):
        raise GameFileError("top level must be an object")
    if doc.get("format") != GAME_FORMAT:
        raise GameFileError(f"unsupported format {doc.get('format')!r}")
    provers = _field(doc, "provers", "", int)
    raw_nodes = _field(doc, "nodes", "", dict)
    raw_sets = _field(doc, "info_sets", "", list)
    nodes: dict[History, Node] = {}
    parsed: dict[str, Fraction] = {}
    for path, record in raw_nodes.items():
        where = f"nodes[{path!r}]"
        record = _typed(record, dict, where)
        if "payments" in record:
            payments = _rats(_field(record, "payments", where, list), where, parsed)
            answer_bit = _typed(record.get("answer_bit", 0), int, f"{where}.answer_bit")
            nodes[history_from_path(path)] = TerminalNode(payments, answer_bit)
        else:
            dist = None
            if record.get("dist") is not None:
                dist = _rats(_field(record, "dist", where, list), where, parsed)
            nodes[history_from_path(path)] = DecisionNode(
                _field(record, "player", where, int), _labels(record, "actions", where), dist
            )
    sets = []
    for n, record in enumerate(raw_sets):
        where = f"info_sets[{n}]"
        record = _typed(record, dict, where)
        members = _labels(record, "members", where)
        sets.append(
            InformationSet(
                _field(record, "owner", where, int),
                tuple(sorted(history_from_path(m) for m in members)),
                _labels(record, "actions", where),
            )
        )
    meta = _field(doc, "meta", "", dict) if doc.get("meta") is not None else {}
    game = GameTree(provers, nodes, tuple(sets), dict(meta))
    beliefs = None
    if "beliefs" in doc:
        dists = {}
        for key, probs in _field(doc, "beliefs", "", dict).items():
            where = f"beliefs[{key!r}]"
            dists[key] = probs = _rats(_typed(probs, list, where), where, parsed)
            if (iset := game.set_by_key.get(key)) is None:
                raise GameFileError(f"{where}: the game has no such information set")
            if len(probs) != len(iset.members):
                raise GameFileError(f"{where}: needs {len(iset.members)} entries, got {len(probs)}")
            if any(p < 0 for p in probs) or sum(probs) != 1:
                raise GameFileError(f"{where}: not a probability distribution")
        beliefs = BeliefSystem.from_dict(dists)
    return game, beliefs


def strategy_to_doc(s: StrategyProfile) -> dict:
    return {"format": STRATEGY_FORMAT, "choices": dict(s.choices)}


def strategy_from_doc(doc: Any) -> StrategyProfile:
    if not isinstance(doc, dict) or doc.get("format") != STRATEGY_FORMAT:
        raise GameFileError("not a strategy document")
    choices = doc.get("choices")
    if not isinstance(choices, dict):
        raise GameFileError("strategy document must map set keys to actions")
    for key, action in choices.items():
        _typed(key, str, f"choices key {key!r}")
        _typed(action, str, f"choices[{key!r}]")
    return StrategyProfile.from_dict(choices)


def dumps(doc: Any) -> str:
    """Canonical JSON text of `doc` in one walk: `_plain` converts only the leaves
    JSON cannot encode (rationals, dataclasses). Keys must be strings, as in every
    document this package builds; `json` would sort and render others its own way."""
    return json.dumps(doc, sort_keys=True, indent=2, default=_plain) + "\n"


def loads(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise GameFileError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except RecursionError:  # the decoder recurses once per level of nesting
        raise GameFileError("document nested too deeply to parse") from None


def save_game(game: GameTree, fp: IO[str], beliefs: BeliefSystem | None = None) -> None:
    fp.write(dumps(game_to_doc(game, beliefs)))


def load_game(fp: IO[str]) -> tuple[GameTree, BeliefSystem | None]:
    return game_from_doc(loads(fp.read()))


def save_strategy(s: StrategyProfile, fp: IO[str]) -> None:
    fp.write(dumps(strategy_to_doc(s)))


def load_strategy(fp: IO[str]) -> StrategyProfile:
    return strategy_from_doc(loads(fp.read()))


def report_doc(kind: str, payload: Any) -> dict:
    return {"format": f"report/{kind}/1", **_plain(payload)}
