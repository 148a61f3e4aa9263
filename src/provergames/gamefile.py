"""Canonical JSON documents for games, strategies, beliefs and reports.

Saving always canonicalizes: sorted keys, two-space indent, lowest-terms
rationals rendered as "num/den" strings, trailing newline. A load/save round
trip is therefore byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import asdict, is_dataclass
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


def _rat(text: Any, where: str) -> Fraction:
    try:
        return rational(text)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise GameFileError(f"{where}: bad rational {text!r} ({exc})")


def _field(record: dict, name: str, where: str) -> Any:
    try:
        return record[name]
    except KeyError:
        raise GameFileError(f"{where}: missing field {name!r}") from None


def game_to_doc(game: GameTree, beliefs: BeliefSystem | None = None) -> dict:
    nodes: dict[str, dict] = {}
    for h in sorted(game.nodes):
        node = game.nodes[h]
        if isinstance(node, TerminalNode):
            nodes[path_of(h)] = {
                "payments": [str(r) for r in node.payments],
                "answer_bit": node.answer_bit,
            }
        else:
            record: dict[str, Any] = {
                "player": node.player,
                "actions": list(node.actions),
            }
            if node.dist is not None:
                record["dist"] = [str(p) for p in node.dist]
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
            key: [str(p) for p in probs] for key, probs in beliefs.distributions
        }
    if game.meta:
        doc["meta"] = _plain(game.meta)
    return doc


def _plain(value: Any) -> Any:
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def game_from_doc(doc: Any) -> tuple[GameTree, BeliefSystem | None]:
    if not isinstance(doc, dict):
        raise GameFileError("top level must be an object")
    if doc.get("format") != GAME_FORMAT:
        raise GameFileError(f"unsupported format {doc.get('format')!r}")
    try:
        provers = int(doc["provers"])
        raw_nodes = doc["nodes"]
        raw_sets = doc["info_sets"]
    except KeyError as exc:
        raise GameFileError(f"missing field {exc}")
    if not isinstance(raw_nodes, dict):
        raise GameFileError("nodes: must be an object mapping paths to node records")
    nodes: dict[History, Node] = {}
    for path, record in raw_nodes.items():
        h = history_from_path(path)
        where = f"nodes[{path!r}]"
        if not isinstance(record, dict):
            raise GameFileError(f"{where}: must be an object")
        if "payments" in record:
            payments = tuple(_rat(r, where) for r in record["payments"])
            nodes[h] = TerminalNode(payments, int(record.get("answer_bit", 0)))
        else:
            player = int(_field(record, "player", where))
            actions = tuple(_field(record, "actions", where))
            dist = None
            if record.get("dist") is not None:
                dist = tuple(_rat(p, where) for p in record["dist"])
            nodes[h] = DecisionNode(player, actions, dist)
    sets = []
    for n, record in enumerate(raw_sets):
        where = f"info_sets[{n}]"
        if not isinstance(record, dict):
            raise GameFileError(f"{where}: must be an object")
        sets.append(
            InformationSet(
                int(_field(record, "owner", where)),
                tuple(sorted(history_from_path(m) for m in _field(record, "members", where))),
                tuple(_field(record, "actions", where)),
            )
        )
    game = GameTree(provers, nodes, tuple(sets), dict(doc.get("meta") or {}))
    beliefs = None
    if "beliefs" in doc:
        beliefs = BeliefSystem.from_dict(
            {
                key: tuple(_rat(p, f"beliefs[{key!r}]") for p in probs)
                for key, probs in doc["beliefs"].items()
            }
        )
    return game, beliefs


def strategy_to_doc(s: StrategyProfile) -> dict:
    return {"format": STRATEGY_FORMAT, "choices": dict(s.choices)}


def strategy_from_doc(doc: Any) -> StrategyProfile:
    if not isinstance(doc, dict) or doc.get("format") != STRATEGY_FORMAT:
        raise GameFileError("not a strategy document")
    choices = doc.get("choices")
    if not isinstance(choices, dict):
        raise GameFileError("strategy document must map set keys to actions")
    return StrategyProfile.from_dict({str(k): str(v) for k, v in choices.items()})


def dumps(doc: Any) -> str:
    return json.dumps(_plain(doc), sort_keys=True, indent=2) + "\n"


def loads(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise GameFileError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}")


def save_game(game: GameTree, fp: IO[str], beliefs: BeliefSystem | None = None) -> None:
    fp.write(dumps(game_to_doc(game, beliefs)))


def load_game(fp: IO[str]) -> tuple[GameTree, BeliefSystem | None]:
    return game_from_doc(loads(fp.read()))


def save_strategy(s: StrategyProfile, fp: IO[str]) -> None:
    fp.write(dumps(strategy_to_doc(s)))


def load_strategy(fp: IO[str]) -> StrategyProfile:
    return strategy_from_doc(loads(fp.read()))


def report_doc(kind: str, payload: Any) -> dict:
    return {"format": f"report/{kind}/1", **_doc_value(payload)}


def _doc_value(value: Any) -> Any:
    if is_dataclass(value) and not isinstance(value, type):
        return {k: _doc_value(v) for k, v in asdict(value).items()}
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {str(_doc_value(k)): _doc_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_doc_value(v) for v in value]
    return value
