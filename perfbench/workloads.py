"""The four workloads: inputs made from the seed, and the request stream of each.

A stream is a list of *steps*; a step is the window the speed
correction brackets (one write plus one request, or one batch of writes
plus its reads).  Steps come in whole *rounds*, each round inserts and
then deletes the same facts, so the session is back to its starting
state after every round and a run attempts exactly the same mix of
operations whatever its length.  The seed picks the values; the sizes,
the conflict structure and the operation mix are the same for every
seed, so runs on different seeds do the same amount of work.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from oracle import Cover, Query, Reference, Row, Shape

EMP_KEY = (
    "Emp(e, d, s), Emp(e, f, t) -> d = f",
    "Emp(e, d, s), Emp(e, f, t) -> s = t",
)
#: Sends every ``Emp`` query that ``auto`` plans to enumeration.
EMP_CHECK = ("Emp(e, d, s) -> s > 0",)
FOREIGN_KEY = (
    "Child(c, p, d) -> Parent(p, q)",
    "Parent(p, q), Parent(p, r) -> q = r",
    "Parent(p, q), isnull(p) -> false",
)
CYCLIC = ("P(x, y) -> T(x)", "T(x) -> P(y, x)")

CHILD_REF = Reference("Child", 1, "Parent", 0, 2)
EMP_SHAPE = Shape(keys={"Emp": 0})
FK_SHAPE = Shape(
    keys={"Parent": 0}, references=(CHILD_REF,), not_null=(("Parent", 0),)
)
CYCLIC_SHAPE = Shape(references=(Reference("T", 0, "P", 1, 2),), covers=(Cover("P", 0, "T"),))
MIXED_SHAPE = Shape(
    keys={"Emp": 0, "Parent": 0}, references=(CHILD_REF,), not_null=(("Parent", 0),)
)

EMP_FULL = Query("Emp", 3, (0, 1, 2))
EMP_PAIR = Query("Emp", 3, (0, 1))
EMP_ID = Query("Emp", 3, (0,))
EMP_DEPT = Query("Emp", 3, (1,))
CHILD_ID = Query("Child", 3, (0,))
CHILD_PAIR = Query("Child", 3, (0, 1))
PARENT_FULL = Query("Parent", 2, (0, 1))
T_ID = Query("T", 1, (0,))
P_SOURCE = Query("P", 2, (0,))
LOG_PAIR = Query("Log", 3, (0, 1))
LOG_LOGIN = Query("Log", 3, (1,), select=((2, "login"),))
TAG_FULL = Query("Tag", 2, (0, 1))


@dataclass(frozen=True)
class Op:
    """One request at the session boundary."""

    kind: str  # "query", "certain", "mutation" or "check"
    session: str
    action: str  # answers, repair_count, certain, insert, delete, is_consistent
    query: Optional[Query] = None
    options: Tuple[Tuple[str, object], ...] = ()
    pred: str = ""
    row: Row = ()  # the fact written, or the candidate of certain()

    def label(self) -> str:
        if self.kind == "mutation":
            return f"{self.session}.{self.action} {self.pred}"
        target = self.query.text() if self.query else ""
        options = ",".join(f"{k}={v}" for k, v in self.options)
        return f"{self.session}.{self.action} {target} {options}".strip()


Step = List[Op]


@dataclass
class SessionSpec:
    constraints: Tuple[str, ...]
    shape: Shape
    rows: Dict[str, List[Row]]
    options: Dict[str, object] = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    sessions: Dict[str, SessionSpec]
    warm: List[Step]
    stream: List[Step]
    rounds: int


# --------------------------------------------------------------------------- rows
def emp_rows(
    rng: random.Random, groups: int, size: int, clean: int, null_groups: int, prefix: str = "dup"
) -> List[Row]:
    """Key-conflict cliques, null-dependent pairs that never conflict, clean rows."""

    rows: List[Row] = []
    for g in range(groups):
        depts = rng.sample(range(100), size)
        salaries = rng.sample(range(1, 400), size)
        rows += [(f"{prefix}{g}", f"dept{d}", s * 10) for d, s in zip(depts, salaries)]
    for g in range(null_groups):
        dept, salary = f"dept{rng.randrange(100)}", rng.randrange(1, 400) * 10
        rows += [(f"nd{g}", dept, salary), (f"nd{g}", dept, None)]
    nulls = set(rng.sample(range(clean), clean // 10))
    for i in range(clean):
        salary = None if i in nulls else rng.randrange(1, 400) * 10
        rows.append((f"e{i}", f"dept{rng.randrange(100)}", salary))
    return rows


def fk_rows(
    rng: random.Random, parents: int, key_groups: int, not_null: int, children: int, dangling: int
) -> Dict[str, List[Row]]:
    """Parents with key conflicts and NOT NULL violators; children with null and dangling refs."""

    parent_rows: List[Row] = [(f"p{i}", f"pd{rng.randrange(1000)}") for i in range(parents)]
    for i in rng.sample(range(parents), key_groups):
        parent_rows.append((f"p{i}", f"alt{i}"))
    parent_rows += [(None, f"nn{j}") for j in range(not_null)]
    child_rows: List[Row] = []
    order = list(range(children))
    rng.shuffle(order)
    null_refs = set(order[: children // 10])
    dangling_refs = set(order[children // 10 : children // 10 + dangling])
    for i in range(children):
        if i in null_refs:
            ref: object = None
        elif i in dangling_refs:
            ref = f"m{i}"
        else:
            ref = f"p{rng.randrange(parents)}"
        payload = None if rng.random() < 0.1 else f"cd{i}"
        child_rows.append((f"c{i}", ref, payload))
    return {"Parent": parent_rows, "Child": child_rows}


def cyclic_rows(rng: random.Random, n: int, missing: int, dangling: int, null_witnesses: int) -> Dict[str, List[Row]]:
    """Example 18 scaled up: P(a, a) needs T(a); T(t) needs some P(_, t)."""

    chosen = rng.sample(range(n), missing + null_witnesses)
    missing_t = set(chosen[:missing])
    p_rows: List[Row] = [(f"a{i}", f"a{i}") for i in range(n)]
    p_rows += [(None, f"a{i}") for i in chosen[missing:]]
    t_rows: List[Row] = [(f"a{i}",) for i in range(n) if i not in missing_t]
    t_rows += [(f"t{j}",) for j in rng.sample(range(1000), dangling)]
    return {"P": p_rows, "T": t_rows}


def log_rows(rng: random.Random, actors: List[object], logs: int, tags: int) -> Dict[str, List[Row]]:
    actions = ("login", "logout", "update", "delete")
    log = [(i, rng.choice(actors), rng.choice(actions)) for i in range(logs)]
    tag = [(actor, f"label{rng.randrange(7)}") for actor in rng.sample(actors, tags)]
    return {"Log": log, "Tag": tag}


# --------------------------------------------------------------------------- helpers
def _write(session: str, action: str, pred: str, row: Row) -> Op:
    return Op("mutation", session, action, pred=pred, row=row)


def _answers(session: str, query: Query, **options: object) -> Op:
    return Op("query", session, "answers", query, tuple(sorted(options.items())))


def _certain(session: str, query: Query, candidate: Row, **options: object) -> Op:
    return Op("certain", session, "certain", query, tuple(sorted(options.items())), row=candidate)


def _rounds(seconds: int, per_second: float, minimum: int) -> int:
    return max(minimum, math.ceil(seconds * per_second))


def warm_pass(steps: List[Step]) -> List[Step]:
    """One request of every shape in *steps*, with its writes, then undo the writes.

    Set-up ends with this untimed pass, so the timed stream starts with
    every plan compiled and generated once.  A step is kept when one of
    its reads has a shape not seen yet; writes are kept where they apply
    to the state so far, and whatever is still inserted at the end is
    deleted again.
    """

    seen = set()
    present: Dict[Tuple[str, str, Row], Op] = {}
    kept: List[Step] = []
    for step in steps:
        shapes = {(op.session, op.action, op.query, op.options) for op in step if op.kind != "mutation"}
        if shapes <= seen:
            continue
        seen |= shapes
        ops = []
        for op in step:
            fact = (op.session, op.pred, op.row)
            if op.action == "insert" and fact not in present:
                present[fact] = op
            elif op.action == "delete" and fact in present:
                del present[fact]
            elif op.kind == "mutation":
                continue
            ops.append(op)
        kept.append(ops)
    undo = [Op("mutation", session, "delete", pred=pred, row=row) for session, pred, row in present]
    return kept + ([undo] if undo else [])


# --------------------------------------------------------------------------- repair_enum
def repair_enum(seed: int, seconds: int) -> Workload:
    """Enumeration-only requests on three small inconsistent sessions."""

    rng = random.Random(seed)
    emp = emp_rows(rng, groups=4, size=3, clean=100, null_groups=2)
    fk = fk_rows(rng, parents=40, key_groups=1, not_null=1, children=90, dangling=4)
    cyc = cyclic_rows(rng, n=90, missing=3, dangling=2, null_witnesses=4)
    sessions = {
        "emp": SessionSpec(EMP_KEY + EMP_CHECK, EMP_SHAPE, {"Emp": emp}),
        "fk": SessionSpec(FOREIGN_KEY, FK_SHAPE, fk),
        "cyc": SessionSpec(CYCLIC, CYCLIC_SHAPE, cyc),
    }
    clean_emp = [row for row in emp if row[0].startswith("e")]
    valid_children = [row for row in fk["Child"] if row[1] is not None and not row[1].startswith("m")]
    parents = sorted({row[0] for row in fk["Parent"] if row[0] is not None})
    present_t = [row[0] for row in cyc["T"] if row[0].startswith("a")]
    witnessed_t = [value for value in present_t if (value, value) in set(cyc["P"])]
    dangling_t = [row[0] for row in cyc["T"] if row[0].startswith("t")]

    def make_round(tag: str) -> List[Step]:
        writes = {
            "emp": ("Emp", (f"w{tag}", f"dept{rng.randrange(100)}", rng.randrange(1, 400) * 10)),
            "fk": ("Child", (f"wc{tag}", rng.choice(parents), f"wd{tag}")),
            "cyc": ("P", tuple(rng.sample(present_t, 2))),
        }
        visits = {"emp": 0, "fk": 0, "cyc": 0}

        def step(session: str, request: Op) -> Step:
            pred, row = writes[session]
            action = "insert" if visits[session] % 2 == 0 else "delete"
            visits[session] += 1
            return [_write(session, action, pred, row), request]

        def hold(session: str) -> Op:
            if session == "emp":
                return _certain("emp", EMP_PAIR, rng.choice(clean_emp)[:2], anytime=True)
            if session == "fk":
                return _certain("fk", CHILD_ID, rng.choice(valid_children)[:1], method="direct", anytime=True)
            return _certain("cyc", T_ID, (rng.choice(witnessed_t),), anytime=True)

        def refute() -> Op:
            return _certain("cyc", T_ID, (rng.choice(dangling_t),), anytime=True)

        # Per round: ten queries and eight certain() calls.  The emp session
        # (81 repairs, the others 32) answers three queries and three
        # holding certain() calls, the slowest of each kind.  A tail has
        # ten samples above it, so the certain() tail falls five deep
        # inside the fifteen emp holds.  The query tail falls on an emp
        # query too, but near the top of those no full collection hits:
        # a run's ~12 full collections land in queries, and 8-9 of them
        # end up slower than every plain emp query (see README.md).  The
        # fk/cyc queries and the fk holding certain() calls carry the
        # medians.
        requests = {
            "emp": [_answers("emp", EMP_PAIR), hold("emp"), _answers("emp", EMP_ID),
                    hold("emp"), _answers("emp", EMP_DEPT), hold("emp")],
            "fk": [_answers("fk", CHILD_ID, method="direct"), hold("fk"), Op("query", "fk", "repair_count"),
                   hold("fk"), _answers("fk", CHILD_PAIR, method="direct"), hold("fk")],
            "cyc": [_answers("cyc", P_SOURCE), _answers("cyc", P_SOURCE), refute(),
                    _answers("cyc", P_SOURCE), refute(), _answers("cyc", P_SOURCE)],
        }
        return [step(session, requests[session][i]) for i in range(6) for session in ("emp", "fk", "cyc")]

    rounds = _rounds(seconds, 0.5, 5)
    warm = warm_pass(make_round("warm"))
    stream = [s for r in range(rounds) for s in make_round(str(r))]
    return Workload("repair_enum", sessions, warm, stream, rounds)


# --------------------------------------------------------------------------- rewrite_read / write_mix
def mixed_session(rng: random.Random) -> SessionSpec:
    """One session over several thousand facts: keys, a foreign key, and free relations."""

    emp = emp_rows(rng, groups=150, size=2, clean=1100, null_groups=20)
    emp += emp_rows(rng, groups=30, size=3, clean=0, null_groups=0, prefix="tri")
    rows: Dict[str, List[Row]] = {"Emp": emp}
    rows.update(fk_rows(rng, parents=300, key_groups=10, not_null=3, children=600, dangling=30))
    actors = [row[0] for row in emp if row[0].startswith("e")]
    rows.update(log_rows(rng, actors, logs=700, tags=250))
    return SessionSpec(EMP_KEY + FOREIGN_KEY, MIXED_SHAPE, rows)


INDEPENDENT = (LOG_PAIR, TAG_FULL, LOG_LOGIN)


def _candidate(rng: random.Random, spec: SessionSpec, query: Query, hold: bool) -> Row:
    """A candidate answer of *query*: certain if *hold*, refuted by a repair otherwise."""

    rows = spec.rows[query.pred]
    if query.pred == "Emp":
        pool = [r for r in rows if r[0].startswith("e" if hold else "dup")]
    elif query.pred == "Child":
        pool = [
            r for r in rows
            if (r[1] is None or r[1].startswith("p")) == hold
        ]
    else:  # Parent, full rows: only parents outside key conflicts hold
        keys: Dict[object, int] = {}
        for r in rows:
            keys[r[0]] = keys.get(r[0], 0) + 1
        pool = [r for r in rows if (r[0] is not None and keys[r[0]] == 1) == hold]
    return query.answer(rng.choice(pool))


def rewrite_read(seed: int, seconds: int) -> Workload:
    """Read-mostly traffic inside the first-order fragment, on one large session.

    Per round of six generations: one child write opens each generation,
    then two in-memory fragment queries, an independent (I302) query or
    the SQLite route in turn, and one ``certain()`` on a query no other
    request of the generation asked, so none of them is served from the
    answer cache; every third
    generation repeats its first query, a deliberate answer-cache hit.
    The SQLite requests are the query tail, the in-memory fragment
    queries its median.
    """

    rng = random.Random(seed)
    spec = mixed_session(rng)
    parents = sorted({row[0] for row in spec.rows["Parent"] if row[0] is not None})
    pair = (EMP_ID, CHILD_PAIR)

    def make_round(tag: str) -> List[Step]:
        # One child write per generation; each fact is deleted again two
        # generations later.
        children = [("Child", (f"wc{tag}_{i}", rng.choice(parents), f"wd{tag}")) for i in range(3)]
        writes = [("insert",) + children[0], ("insert",) + children[1], ("delete",) + children[0],
                  ("insert",) + children[2], ("delete",) + children[1], ("delete",) + children[2]]
        steps: List[Step] = []
        for g in range(6):
            first, second = pair[g % 2], pair[1 - g % 2]
            third = (
                _answers("main", INDEPENDENT[(g // 2) % len(INDEPENDENT)])
                if g % 2 == 0
                else _answers("main", EMP_FULL, method="sqlite")
            )
            action, pred, row = writes[g]
            step = [_write("main", action, pred, row)]
            step += [
                _answers("main", first),
                _answers("main", second),
                third,
                _certain("main", EMP_FULL, _candidate(rng, spec, EMP_FULL, hold=g % 3 != 2)),
            ]
            if g % 3 == 0:
                step.append(_answers("main", first))  # a deliberate answer-cache hit
            steps.append(step)
        return steps

    rounds = _rounds(seconds, 0.7, 7)
    warm = warm_pass(make_round("warm"))
    stream = [s for r in range(rounds) for s in make_round(str(r))]
    return Workload("rewrite_read", {"main": spec}, warm, stream, rounds)


def write_mix(seed: int, seconds: int) -> Workload:
    """Write-heavy traffic on the same data: batches of writes, then two reads.

    Each batch inserts one fact of eight kinds (a clean employee, a
    second member for a clean key, children with a valid, a null and a
    dangling reference, a parent that resolves a dangling reference, a
    NOT NULL violator, a clean parent) and the next batch deletes them
    again, so the kind mix is the same in every round.  Every batch ends
    with ``is_consistent()`` and one fragment read, each at a generation
    no read has seen.
    """

    rng = random.Random(seed)
    spec = mixed_session(rng)
    clean = [row for row in spec.rows["Emp"] if row[0].startswith("e")]
    parents = sorted({row[0] for row in spec.rows["Parent"] if row[0] is not None})
    dangling_refs = sorted(
        {row[1] for row in spec.rows["Child"] if row[1] is not None and row[1].startswith("m")}
    )
    reads = (CHILD_PAIR, PARENT_FULL, EMP_ID)
    counter = [0]

    def batch_writes(tag: str) -> List[Tuple[str, Row]]:
        member = rng.choice(clean)
        return [
            ("Emp", (f"w{tag}", f"dept{rng.randrange(100)}", rng.randrange(1, 400) * 10)),
            ("Emp", (member[0], f"new{tag}", rng.randrange(400, 800) * 10)),
            ("Child", (f"wv{tag}", rng.choice(parents), f"wd{tag}")),
            ("Child", (f"wn{tag}", None, f"wd{tag}")),
            ("Child", (f"wm{tag}", f"wmiss{tag}", None)),
            ("Parent", (rng.choice(dangling_refs), f"res{tag}")),
            ("Parent", (None, f"wnn{tag}")),
            ("Parent", (f"wp{tag}", f"wpd{tag}")),
        ]

    def make_round(tag: str) -> List[Step]:
        steps: List[Step] = []
        for half in range(2):
            writes = batch_writes(f"{tag}_{half}")
            for action in ("insert", "delete"):
                order = writes if action == "insert" else list(reversed(writes))
                step = [_write("main", action, pred, row) for pred, row in order]
                step.append(Op("check", "main", "is_consistent"))
                query = reads[counter[0] % len(reads)]
                counter[0] += 1
                if action == "insert":
                    step.append(_answers("main", query))
                else:
                    step.append(_certain("main", query, _candidate(rng, spec, query, hold=half == 0)))
                steps.append(step)
        return steps

    rounds = _rounds(seconds, 12.0, 60)
    warm = warm_pass(make_round("warm"))
    stream = [s for r in range(rounds) for s in make_round(str(r))]
    return Workload("write_mix", {"main": spec}, warm, stream, rounds)


# --------------------------------------------------------------------------- pool_enum
def pool_enum(seed: int, seconds: int) -> Workload:
    """Enumeration through the process pool: parallel repair mode with two workers."""

    rng = random.Random(seed)
    emp = emp_rows(rng, groups=4, size=3, clean=100, null_groups=2)
    sessions = {
        "pool": SessionSpec(
            EMP_KEY + EMP_CHECK, EMP_SHAPE, {"Emp": emp},
            {"repair_mode": "parallel", "workers": 2},
        )
    }
    clean_emp = [row for row in emp if row[0].startswith("e")]
    conflicted = [row for row in emp if row[0].startswith("dup")]

    def make_round(tag: str) -> List[Step]:
        rows = [(f"w{tag}_{i}", f"dept{rng.randrange(100)}", rng.randrange(1, 400) * 10) for i in range(2)]
        requests = [
            _answers("pool", EMP_PAIR),
            _certain("pool", EMP_PAIR, rng.choice(clean_emp)[:2], anytime=True),
            _answers("pool", EMP_DEPT),
            _certain("pool", EMP_PAIR, rng.choice(conflicted)[:2], anytime=True),
            _answers("pool", EMP_ID),
            _certain("pool", EMP_PAIR, rng.choice(clean_emp)[:2], anytime=True),
        ]
        # Each request follows an insert and a delete of two clean rows: the
        # generation moves, so the repair caches miss, and the state is back
        # where it was.  Only the first write of a step follows a request and
        # pays for the indexes that request built, so the median write is one
        # that follows a write.
        writes = [_write("pool", action, "Emp", row) for row in rows for action in ("insert", "delete")]
        return [writes + [request] for request in requests]

    rounds = _rounds(seconds, 1.4, 14)
    warm = warm_pass(make_round("warm"))
    stream = [s for r in range(rounds) for s in make_round(str(r))]
    return Workload("pool_enum", sessions, warm, stream, rounds)


WORKLOADS = {
    "repair_enum": repair_enum,
    "rewrite_read": rewrite_read,
    "write_mix": write_mix,
    "pool_enum": pool_enum,
}
