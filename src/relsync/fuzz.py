"""Seeded scenario fuzzer for the sync engine.

Generates random but always-valid scenarios over the shipped social-graph
schema — identities owning contacts that reference other identities, and
participations enrolling identities into events — then runs each one in
`both` mode so every sync step checks the timestamp algorithm against the
snapshot oracle and against exact replica convergence, and every memoised
walk against a fresh one.  Failures are data: they are counted in the
summary and written out as replayable `.scn` files.

Everything is driven by one random.Random(seed), so a (seed, iterations,
bounds) triple always produces the same scenarios and the same summary.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

from .errors import RelsyncError
from .model import (
    AssociationDef,
    CreateLink,
    CreateObject,
    DeleteLink,
    DeleteObject,
    Link,
    Mutation,
    Scalar,
    Schema,
    SystemData,
    UpdateState,
)
from .runner import run_scenario
from .scenario import (
    AssertConvergedStep,
    ClientDecl,
    PushStep,
    Scenario,
    Step,
    SyncStep,
    TxStep,
    render_scenario,
)
from .expr import parse_expression, render_expression
from .memo import WalkMemo
from .paths import TypedGraph, evaluate

EXPR_CONTACTS = "{user}.Contact.contactIdentity"
EXPR_EVENTS = "{user}.Participation.Event.Participation.Identity"
EXPR_OWN_CONTACTS = "{user}.Contact"


def social_schema() -> Schema:
    """The shipped fixture schema: identities, contacts, events,
    participations, and the four associations tying them together."""
    return Schema(
        classes={"Identity", "Contact", "Event", "Participation"},
        assocs=[
            AssociationDef("Ownership", "Identity", "owner", "Contact", "Contact"),
            AssociationDef("Reference", "Contact", "reference", "Identity", "contactIdentity"),
            AssociationDef("Attendance", "Identity", "Identity", "Participation", "Participation"),
            AssociationDef("Enrollment", "Participation", "Participation", "Event", "Event"),
        ],
    )


# The schema every generated scenario carries; nothing mutates a schema
# once built, so one instance serves them all.
_SOCIAL_SCHEMA = social_schema()


# The scenario size every fuzz run uses; only the object cap is an option.
MAX_MUTATIONS = 60
MAX_SYNCS_PER_CLIENT = 4
MAX_CLIENTS = 3


@dataclass
class FuzzBounds:
    max_objects: int = 30


@dataclass
class FuzzFailure:
    iteration: int
    reason: str
    dump_path: str | None = None


@dataclass
class FuzzSummary:
    seed: int
    iterations: int
    failures: list[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def render(self) -> str:
        lines = [f"seed {self.seed} iterations {self.iterations} failures {len(self.failures)}"]
        for f in self.failures:
            where = f" -> {f.dump_path}" if f.dump_path else ""
            lines.append(f"  iteration {f.iteration}: {f.reason}{where}")
        return "".join(line + "\n" for line in lines)


_STATE_KEYS = ("name", "size", "flag", "note")


class _Generator:
    """Builds one random valid Scenario over the shared social schema,
    mirroring the server's state so every generated mutation passes staging
    and commits cleanly."""

    def __init__(self, rng: random.Random, bounds: FuzzBounds):
        self.rng = rng
        self.bounds = bounds
        self.schema = _SOCIAL_SCHEMA
        self.model = SystemData()  # what the committed server state will be
        self.counter = 0
        self.mutations_used = 0
        self.roots: list[str] = []

    # -- model bookkeeping ----------------------------------------------------

    def fresh_id(self, prefix: str) -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"

    def track(self, m: Mutation) -> None:
        self.model.apply(m)
        self.mutations_used += 1

    def objects_of(self, cls: str) -> list[str]:
        return [oid for oid, c in self.model.objects.items() if c == cls]

    def room_for(self, n: int) -> bool:
        return (
            len(self.model.objects) + n <= self.bounds.max_objects
            and self.mutations_used + n <= MAX_MUTATIONS
        )

    def rand_state(self) -> dict[str, Scalar]:
        state: dict[str, Scalar] = {}
        for key in self.rng.sample(_STATE_KEYS, k=self.rng.randint(0, 2)):
            if key == "size":
                state[key] = self.rng.randint(0, 99)
            elif key == "flag":
                state[key] = self.rng.random() < 0.5
            else:
                state[key] = f"s{self.rng.randint(0, 999)}"
        return state

    # -- mutation makers (None = not applicable right now) ----------------------

    def make_create(self) -> list[Mutation] | None:
        identities = self.objects_of("Identity")
        choices = ["Identity", "Event"]
        if identities:
            choices += ["Contact", "Contact", "Participation", "Participation"]
        cls = self.rng.choice(choices)
        if cls == "Identity" or cls == "Event":
            if not self.room_for(1):
                return None
            oid = self.fresh_id(cls[0])
            return [CreateObject.make(oid, cls, self.rand_state())]
        if cls == "Contact":
            if not self.room_for(1):
                return None
            cid = self.fresh_id("C")
            out: list[Mutation] = [
                CreateObject.make(cid, "Contact", self.rand_state()),
                CreateLink(Link(self.rng.choice(identities), cid, "Ownership")),
            ]
            if self.rng.random() < 0.7:
                out.append(CreateLink(Link(cid, self.rng.choice(identities), "Reference")))
            return out
        # Participation: attach an identity to an event, creating the event
        # when there is none yet.
        events = self.objects_of("Event")
        need = 1 if events else 2
        if not self.room_for(need):
            return None
        out = []
        if not events:
            eid = self.fresh_id("E")
            out.append(CreateObject.make(eid, "Event", self.rand_state()))
        else:
            eid = self.rng.choice(events)
        pid = self.fresh_id("P")
        out.append(CreateObject.make(pid, "Participation", self.rand_state()))
        out.append(CreateLink(Link(self.rng.choice(identities), pid, "Attendance")))
        out.append(CreateLink(Link(pid, eid, "Enrollment")))
        return out

    def make_link(self, forbidden: set[Link]) -> list[Mutation] | None:
        assocs = list(self.schema.assocs.values())
        self.rng.shuffle(assocs)
        for assoc in assocs:
            srcs = self.objects_of(assoc.class_a)
            dsts = self.objects_of(assoc.class_b)
            candidates = [
                Link(s, d, assoc.name)
                for s in srcs
                for d in dsts
                if s != d
                and Link(s, d, assoc.name) not in self.model.links
                and Link(s, d, assoc.name) not in forbidden
            ]
            if candidates:
                return [CreateLink(self.rng.choice(candidates))]
        return None

    def make_update(self) -> list[Mutation] | None:
        if not self.model.objects:
            return None
        oid = self.rng.choice(list(self.model.objects))
        return [UpdateState.make(oid, self.rand_state())]

    def make_delete_link(self) -> list[Mutation] | None:
        if not self.model.links:
            return None
        return [DeleteLink(self.rng.choice(sorted(self.model.links)))]

    def make_delete_object(self) -> list[Mutation] | None:
        candidates = [oid for oid in self.model.objects if oid not in self.roots]
        if not candidates:
            return None
        return [DeleteObject(self.rng.choice(candidates))]

    def next_batch(self, forbidden: set[Link]) -> list[Mutation]:
        # Mix skews toward growth; deletions are rarer but must be exercised.
        kind = self.rng.choices(
            ["create", "link", "update", "delete-link", "delete-object"],
            weights=[35, 25, 20, 10, 10],
        )[0]
        makers = {
            "create": self.make_create,
            "link": lambda: self.make_link(forbidden),
            "update": self.make_update,
            "delete-link": self.make_delete_link,
            "delete-object": self.make_delete_object,
        }
        batch = makers[kind]()
        if batch is None:
            batch = self.make_update() or (self.room_for(1) and self.make_create()) or []
        if batch and self.mutations_used + len(batch) > MAX_MUTATIONS:
            return []
        return batch

    # -- scenario assembly ------------------------------------------------------

    def build(self) -> Scenario:
        rng = self.rng
        budget = rng.randint(10, MAX_MUTATIONS)
        n_clients = rng.randint(1, MAX_CLIENTS)
        steps: list[Step] = []

        # Bootstrap: one identity per client (budget permitting), some state.
        bootstrap: list[Mutation] = []
        for _ in range(n_clients):
            if len(bootstrap) >= budget or not self.room_for(1):
                break
            root = self.fresh_id("I")
            self.roots.append(root)
            bootstrap.append(CreateObject.make(root, "Identity", self.rand_state()))
        for m in bootstrap:
            self.track(m)
        if bootstrap:
            steps.append(TxStep(bootstrap))

        clients: dict[str, ClientDecl] = {}
        for name in ("A", "B", "C")[:n_clients]:
            exprs = [parse_expression(EXPR_CONTACTS), parse_expression(EXPR_EVENTS)]
            if rng.random() < 0.3:
                exprs.append(parse_expression(EXPR_OWN_CONTACTS))
            root = rng.choice(self.roots) if self.roots else "I0"
            clients[name] = ClientDecl(name=name, root=root, exprs=exprs)

        pending_syncs: list[str] = []
        for name in clients:
            pending_syncs += [name] * rng.randint(1, MAX_SYNCS_PER_CLIENT)
        rng.shuffle(pending_syncs)

        synced: set[str] = set()
        stalls = 0
        while pending_syncs or (self.mutations_used < budget and stalls < 25):
            roll = rng.random()
            if roll < 0.5 and self.mutations_used < budget:
                # one transaction of a few batches
                block: list[Mutation] = []
                # Links live at tx start or created within the tx may not be
                # (re-)created by a later mutation of the same tx: a batch is
                # checked in kind order, so a re-create meets the live link
                # before its delete and is a duplicate.
                forbidden = set(self.model.links)
                for _ in range(rng.randint(1, 3)):
                    batch = self.next_batch(forbidden)
                    for m in batch:
                        self.track(m)
                        if isinstance(m, CreateLink):
                            forbidden.add(m.link)
                        block.append(m)
                if block:
                    steps.append(TxStep(block))
                    stalls = 0
                else:
                    stalls += 1
            elif roll < 0.65 and self.mutations_used < budget and clients:
                name = rng.choice(list(clients))
                decl = clients[name]
                if name in synced and decl.root in self.model.objects and rng.random() < 0.5:
                    mutation: Mutation = UpdateState.make(decl.root, self.rand_state())
                elif self.room_for(1):
                    mutation = CreateObject.make(self.fresh_id("E"), "Event", self.rand_state())
                else:
                    stalls += 1
                    continue
                self.track(mutation)
                steps.append(PushStep(name, mutation))
                stalls = 0
            elif pending_syncs:
                name = pending_syncs.pop()
                synced.add(name)
                steps.append(SyncStep(name))
                steps.append(AssertConvergedStep(name))
            else:
                stalls += 1
        return Scenario(schema=self.schema, clients=clients, steps=steps)


def stale_walks(data: SystemData) -> list[str]:
    """The memoised walks of the data that a walk over a copy of it, which
    has no memo, does not give, each as its expression and user: their
    paths, starts, tree, read map or element counts differ (see
    `PathSet.agrees_with`).  A pending walk is regrown first, on a view of
    the data that holds that walk alone, so the memo is left as it is."""
    copy = data.copy()
    stale = []
    for key, walk in data.walks.items():
        expr, schema, user = key
        fresh = evaluate(expr, TypedGraph(copy, schema), user=user)
        ours = walk.paths
        if walk.pending is not None:
            view = SystemData.__new__(SystemData)
            view.__dict__ = {**vars(data), "walks": WalkMemo({key: walk})}
            ours = evaluate(expr, TypedGraph(view, schema), user=user)
        if not ours.agrees_with(fresh):
            stale.append(f"{render_expression(expr)} user={user}")
    return stale


def fuzz(
    seed: int,
    iterations: int,
    bounds: FuzzBounds | None = None,
    out_dir: str | Path | None = None,
) -> FuzzSummary:
    """Run `iterations` generated scenarios in `both` mode.  A scenario
    fails on a divergence report, an engine error, or a memoised walk on
    the store's live data or on a replica's that a fresh walk, checked
    after every sync, does not give.  Stale walks are reported first, even
    when a later step raised."""
    bounds = bounds or FuzzBounds()
    rng = random.Random(seed)
    summary = FuzzSummary(seed=seed, iterations=iterations)
    stale: list[str] = []

    def check_walks(ctx, index, client, applied, shadow):
        owners = [("store", ctx.store.data)]
        owners += [(name, replica.data) for name, replica in ctx.replicas.items()]
        for owner, data in owners:
            stale.extend(f"step {index} {owner}: {walk}" for walk in stale_walks(data))

    for i in range(iterations):
        scenario = _Generator(rng, bounds).build()
        reason: str | None = None
        stale.clear()
        try:
            reports = run_scenario(scenario, mode="both", on_sync=check_walks)
        except RelsyncError as exc:
            reports, reason = [], f"error: {exc}"
        # a stale walk found before an error is its likelier cause
        if stale:
            reason = f"{len(stale)} stale memoised walks: " + "; ".join(stale[:3])
        elif reports:
            reason = f"{len(reports)} divergence reports: " + "; ".join(
                r.render().splitlines()[0] for r in reports[:3]
            )
        if reason is not None:
            dump_path = None
            if out_dir is not None:
                out = Path(out_dir)
                out.mkdir(parents=True, exist_ok=True)
                dump = out / f"fail_{i:04d}.scn"
                header = f"# seed {seed} iteration {i}\n# {reason}\n"
                dump.write_text(header + render_scenario(scenario), encoding="utf-8")
                dump_path = str(dump)
            summary.failures.append(FuzzFailure(i, reason, dump_path))
    return summary


__all__ = [
    "EXPR_CONTACTS",
    "EXPR_EVENTS",
    "FuzzBounds",
    "FuzzFailure",
    "FuzzSummary",
    "MAX_CLIENTS",
    "MAX_MUTATIONS",
    "MAX_SYNCS_PER_CLIENT",
    "fuzz",
    "social_schema",
    "stale_walks",
]
