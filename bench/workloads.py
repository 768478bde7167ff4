"""Workload inputs and the timed closed loop of the relsync benchmark.

Three workloads drive relsync through its public API, plus the fuzzer's
scenario generator:

  read-fanout  ~5k objects and 48 clients over three expression shapes.
               Sync dominates: path evaluation, change-log lookups, delta
               assembly and replica apply/GC.
  write-churn  ~20k objects that keep growing, and 8 {user}-rooted clients.
               Commits dominate: the full-store copy, schema validation,
               delete cascades and the deletion broadcast.
  fuzz-corpus  the fuzzer's own small scenarios (<= 30 objects), each run
               through run_scenario(mode="both").  It bypasses every scale
               optimisation, so per-call and per-store set-up costs show.

BENCHMARK.json gates read-fanout and fuzz-corpus.  write-churn runs the
same way but is not gated: on a 2-vCPU VM shared with other tenants its
allocation-heavy 20k-object commits vary too much from run to run (the
spread between quartiles of commit p50 over ten seeds reached 0.24 against
the 0.25 limit of a bound).

Every input comes from one random.Random(seed).  The loop is closed and
single-threaded: one simulated caller at a time, each waiting for its
reply.  Operations are drawn from the seeded stream independently of
timing, so the first N operations of a seed are always the same ones.

Functions that the traced run wraps are called through their modules
(`rs_sync.timestamp_sync`, ...), so the wrappers see these calls.
"""

from __future__ import annotations

import gc
import math
import random
import resource
import statistics
import time
from dataclasses import dataclass, field

import relsync.delta as rs_delta
import relsync.fuzz as rs_fuzz
import relsync.oracle as rs_oracle
import relsync.runner as rs_runner
import relsync.sync as rs_sync
from relsync import (
    CreateLink,
    CreateObject,
    DeleteLink,
    DeleteObject,
    DeltaSet,
    Link,
    RelsyncError,
    Replica,
    SnapshotOracle,
    Store,
    SystemData,
    UpdateState,
    parse_expression,
    social_schema,
)
from relsync.expr import USER_VARIABLE, InstanceSet
from relsync.runner import RunContext, compare_replica
from relsync.scenario import AssertConvergedStep, ClientDecl, Scenario

# Set-up runs this many times per run and reports the median.
SETUP_REPEATS = 7

EXPR_SHAPES = {
    "neighbourhood": (
        "{user}.Contact.contactIdentity",
        "{user}.Participation.Event.Participation.Identity",
    ),
    "two-hop": ("{user}.Contact.contactIdentity.Contact.contactIdentity",),
    "feed": ('Event[title="picnic"].Participation.Identity',),
}

TITLES = ("picnic", "dinner", "hike", "concert", "meetup", "game")
PICNIC_SHARE = 0.15


@dataclass(frozen=True)
class Spec:
    """Sizes of one workload.  Objects at load: identities * (1 + contacts)
    + events * (1 + per_event)."""

    identities: int = 0
    contacts_each: int = 0
    events: int = 0
    per_event: int = 0
    shapes: tuple[str, ...] = ()  # one expression shape per client
    # Operations per schedule block; each block is shuffled, so every run
    # keeps the same mix however many operations fit in its window.
    block: tuple[tuple[str, int], ...] = ()
    corpus: int = 0  # fuzz-corpus: scenarios generated in set-up


SPECS = {
    "read-fanout": Spec(
        identities=600, contacts_each=4, events=95, per_event=20,
        shapes=("neighbourhood", "two-hop", "feed") * 16,
        block=(("sync", 15), ("commit", 3), ("push", 2)),
    ),
    "write-churn": Spec(
        identities=2400, contacts_each=4, events=380, per_event=20,
        shapes=("neighbourhood", "two-hop") * 4,
        block=(("commit", 3), ("sync", 1)),
    ),
    "fuzz-corpus": Spec(corpus=1000),
}

# Same mixes at a size that runs in a second; the determinism test uses them.
SMALL_SPECS = {
    "read-fanout": Spec(
        identities=60, contacts_each=3, events=10, per_event=6,
        shapes=("neighbourhood", "two-hop", "feed") * 3,
        block=SPECS["read-fanout"].block,
    ),
    "write-churn": Spec(
        identities=120, contacts_each=3, events=15, per_event=6,
        shapes=("neighbourhood", "two-hop") * 2,
        block=SPECS["write-churn"].block,
    ),
    "fuzz-corpus": Spec(corpus=40),
}

WORKLOADS = tuple(SPECS)


def percentile(samples: list[float], q: int) -> float:
    """The q-th percentile, q in 1..99, interpolated between samples."""
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def delta_size(delta: DeltaSet) -> int:
    return (
        len(delta.crt_objects) + len(delta.upd_objects) + len(delta.del_objects)
        + len(delta.crt_links) + len(delta.del_links)
    )


@dataclass
class Tally:
    """What the timed loop observed.  Latencies are in ms, per op kind."""

    samples: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    delta_bytes: list[int] = field(default_factory=list)  # incremental syncs
    wall_s: float = 0.0  # first syncs and window
    window_s: float = 0.0  # the timed window after the first syncs
    window_completed: int = 0

    def add(self, kind: str, ms: float) -> None:
        self.samples.setdefault(kind, []).append(ms)


@dataclass
class Check:
    """Outcome of the post-run correctness checks."""

    run: int = 0
    divergences: int = 0  # checks that found a replica differing from its slice
    # Divergences of filter-rooted clients: the known under-delivery of a
    # `Class[attr op lit]` root (ROADMAP item 4).  Counted, not excused:
    # they are in `divergences` and `error_rate` too.
    known_defect: int = 0
    notes: list[str] = field(default_factory=list)


class Pool:
    """Ids with O(1) add, remove and seeded random choice."""

    def __init__(self) -> None:
        self.items: list[str] = []
        self.index: dict[str, int] = {}

    def __contains__(self, item: str) -> bool:
        return item in self.index

    def add(self, item: str) -> None:
        self.index[item] = len(self.items)
        self.items.append(item)

    def discard(self, item: str) -> None:
        pos = self.index.pop(item, None)
        if pos is None:
            return
        last = self.items.pop()
        if pos < len(self.items):
            self.items[pos] = last
            self.index[last] = pos

    def choice(self, rng: random.Random) -> str:
        return self.items[rng.randrange(len(self.items))]


class Deck:
    """Draws from a fixed mix in shuffled blocks, so every block holds the
    exact mix and runs of different seeds do the same kinds of work."""

    def __init__(self, rng: random.Random, mix) -> None:
        self.rng = rng
        self.mix = tuple(mix)
        self.cards: list = []

    def draw(self):
        if not self.cards:
            self.cards = [card for card, n in self.mix for _ in range(n)]
            self.rng.shuffle(self.cards)
        return self.cards.pop()


class Social:
    """The benchmark's own view of the social graph it generates.

    Pools hold every live object by class; the neighbourhood maps are hints
    that a delete cascade can make stale, so each draw re-checks the links
    it relies on against the store's current data.  Only the
    benchmark's generator reads this; relsync sees plain mutations.
    """

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.serial = 0
        self.pools = {cls: Pool() for cls in ("Identity", "Contact", "Event", "Participation")}
        self.owned: dict[str, list[str]] = {}  # identity -> contacts
        self.attends: dict[str, list[str]] = {}  # identity -> participations
        self.event_of: dict[str, str] = {}  # participation -> event
        self.reference: dict[str, Link] = {}  # contact -> its Reference link

    def fresh(self, prefix: str) -> str:
        self.serial += 1
        return f"{prefix}{self.serial}"

    def word(self, prefix: str) -> str:
        return f"{prefix}{self.rng.randrange(1_000_000)}"

    def title(self) -> str:
        if self.rng.random() < PICNIC_SHARE:
            return "picnic"
        return self.rng.choice(TITLES[1:])

    # -- generation --------------------------------------------------------

    def initial(self, spec: Spec) -> list:
        """Mutations that bulk-load the graph in one transaction."""
        rng = self.rng
        objects: list = []
        links: list = []
        identities = [self.fresh("I") for _ in range(spec.identities)]
        for iid in identities:
            objects.append(CreateObject.make(iid, "Identity", {"name": self.word("n")}))
        for iid in identities:
            for _ in range(spec.contacts_each):
                target = rng.choice(identities)
                while target == iid:
                    target = rng.choice(identities)
                objects_, links_ = self.contact(iid, target)
                objects += objects_
                links += links_
        for _ in range(spec.events):
            eid = self.fresh("E")
            objects.append(CreateObject.make(eid, "Event", {"title": self.title()}))
            for iid in rng.sample(identities, spec.per_event):
                objects_, links_ = self.attendance(iid, eid)
                objects += objects_
                links += links_
        mutations = objects + links
        self.note(mutations)
        return mutations

    def contact(self, owner: str, target: str) -> tuple[list, list]:
        cid = self.fresh("C")
        return (
            [CreateObject.make(cid, "Contact", {"nick": self.word("k")})],
            [CreateLink(Link(owner, cid, "Ownership")), CreateLink(Link(cid, target, "Reference"))],
        )

    def attendance(self, iid: str, eid: str) -> tuple[list, list]:
        pid = self.fresh("P")
        return (
            [CreateObject.make(pid, "Participation", {})],
            [CreateLink(Link(iid, pid, "Attendance")), CreateLink(Link(pid, eid, "Enrollment"))],
        )

    def note(self, mutations: list) -> None:
        """Track mutations the store accepted."""
        for m in mutations:
            if isinstance(m, CreateObject):
                self.pools[m.class_name].add(m.object_id)
            elif isinstance(m, DeleteObject):
                for pool in self.pools.values():
                    pool.discard(m.object_id)
            elif isinstance(m, CreateLink):
                link = m.link
                if link.assoc == "Ownership":
                    self.owned.setdefault(link.src, []).append(link.dst)
                elif link.assoc == "Reference":
                    self.reference[link.src] = link
                elif link.assoc == "Attendance":
                    self.attends.setdefault(link.src, []).append(link.dst)
                elif link.assoc == "Enrollment":
                    self.event_of[link.src] = link.dst

    # -- neighbourhood lookups (re-checked against live data) --------------

    def contacts_of(self, data: SystemData, iid: str) -> list[str]:
        hint = self.owned.get(iid, [])
        hint[:] = [c for c in hint if Link(iid, c, "Ownership") in data.links]
        return hint

    def events_of(self, data: SystemData, iid: str) -> list[str]:
        hint = self.attends.get(iid, [])
        hint[:] = [p for p in hint if Link(iid, p, "Attendance") in data.links]
        return [
            self.event_of[p] for p in hint
            if p in self.event_of and Link(p, self.event_of[p], "Enrollment") in data.links
        ]

    def referenced(self, data: SystemData, cid: str) -> Link | None:
        link = self.reference.get(cid)
        return link if link is not None and link in data.links else None

    # -- changes: each returns (mutations, ids it touches) or None ---------

    def new_contact(self, owner: str) -> tuple[list, set[str]] | None:
        target = self.pools["Identity"].choice(self.rng)
        if target == owner:
            return None
        objects, links = self.contact(owner, target)
        return objects + links, {owner, target}

    def new_attendance(self, iid: str, eid: str) -> tuple[list, set[str]]:
        objects, links = self.attendance(iid, eid)
        return objects + links, {iid, eid}

    def rename(self, eid: str) -> tuple[list, set[str]]:
        return [UpdateState.make(eid, {"title": self.title()})], {eid}

    def update(self, oid: str) -> tuple[list, set[str]]:
        cls = next(c for c, pool in self.pools.items() if oid in pool)
        key = {"Identity": "name", "Contact": "nick", "Participation": "role"}.get(cls)
        if key is None:
            return self.rename(oid)
        return [UpdateState.make(oid, {key: self.word(key[0])})], {oid}

    def delete(self, oid: str) -> tuple[list, set[str]]:
        return [DeleteObject(oid)], {oid}


@dataclass
class Client:
    name: str
    shape: str
    replica: Replica
    last_data: SystemData = field(default_factory=SystemData)  # data at last sync

    @property
    def user_rooted(self) -> bool:
        return all(
            isinstance(e.root, InstanceSet) and e.root.refs == (USER_VARIABLE,)
            for e in self.replica.exprs
        )


class SyncWorld:
    """One store, its clients' replicas, and the seeded operation stream of
    read-fanout or write-churn."""

    def __init__(self, name: str, spec: Spec, seed: int) -> None:
        self.name = name
        self.rng = random.Random(seed)
        self.schema = social_schema()
        self.social = Social(self.rng)
        self.store = Store(self.schema)
        self.store.apply(self.social.initial(spec))
        roots = self.rng.sample(self.social.pools["Identity"].items, len(spec.shapes))
        self.clients: list[Client] = []
        for i, (root, shape) in enumerate(zip(roots, spec.shapes)):
            exprs = [parse_expression(text) for text in EXPR_SHAPES[shape]]
            replica = Replica(name=f"c{i}", root=root, exprs=exprs, schema=self.schema)
            self.clients.append(Client(replica.name, shape, replica))
        self.roots = set(roots)
        self.order = list(self.clients)
        self.rng.shuffle(self.order)
        self.turn = 0
        rng = self.rng
        self.ops = Deck(rng, spec.block)
        self.local_kinds = Deck(rng, [
            ("update", 6), ("contact", 4), ("uncontact", 3), ("rename", 5), ("attend", 2)])
        self.feed_kinds = Deck(rng, [("rename", 7), ("attend", 3)])
        self.extra_changes = Deck(rng, [(0, 1), (1, 1), (2, 1)])
        self.churn_kinds = Deck(rng, [("contact", 2), ("unlink", 1), ("update", 2)])
        self.delete_classes = Deck(rng, [("Contact", 5), ("Participation", 3), ("Identity", 2)])
        self.near = Deck(rng, [(True, 3), (False, 7)])
        self.tracer = None  # set by the traced run
        self.excluded_s = 0.0  # traced run: time spent on the oracle shadow

    # -- the operation stream -----------------------------------------------

    def joins(self) -> list[tuple]:
        """Every client's first sync (cursor 0), in seeded order."""
        return [("first_sync", client) for client in self.order]

    def next_op(self) -> tuple:
        """The next operation of the shuffled schedule block.  Clients sync
        in turn, so each sync covers the same span of commits."""
        kind = self.ops.draw()
        if kind == "sync":
            self.turn += 1
            return ("sync", self.order[self.turn % len(self.order)])
        client = self.rng.choice(self.clients)
        if kind == "commit":
            if self.name == "write-churn":
                return ("commit", self.churn_batch())
            return ("commit", self.local_change(client))
        return ("push", client, self.push_mutation(client))

    def local_change(self, client: Client) -> list:
        """One server commit in the client's neighbourhood."""
        social, data, rng = self.social, self.store.data, self.rng
        root = client.replica.root
        if client.shape == "feed":
            eid = social.pools["Event"].choice(rng)
            if self.feed_kinds.draw() == "rename":
                return social.rename(eid)[0]
            iid = social.pools["Identity"].choice(rng)
            return social.new_attendance(iid, eid)[0]
        kind = self.local_kinds.draw()
        contacts = social.contacts_of(data, root)
        change = None
        if kind == "update" and contacts:
            ref = social.referenced(data, rng.choice(contacts))
            if ref is not None:
                change = social.update(ref.dst)
        elif kind == "contact":
            change = social.new_contact(root)
        elif kind == "uncontact" and len(contacts) > 1:
            change = social.delete(rng.choice(contacts))
        elif kind == "rename":
            events = social.events_of(data, root)
            if events:
                change = social.rename(rng.choice(events))
        elif kind == "attend":
            change = social.new_attendance(root, social.pools["Event"].choice(rng))
        if change is None:
            change = social.update(root)
        return change[0]

    def churn_batch(self) -> list:
        """One commit of 2-4 changes: a contact create and a cascading
        object delete, plus up to two contact creates, link deletes or
        updates; about a third of the changes land near some client.  Each
        commit pays for one delete cascade, so commit cost does not swing
        with how many deletes a batch happens to draw."""
        social, data, rng = self.social, self.store.data, self.rng
        pools = social.pools
        batch: list = []
        touched: set[str] = set()
        kinds = ["contact", "delete"]
        kinds += [self.churn_kinds.draw() for _ in range(self.extra_changes.draw())]
        for kind in kinds:
            near = rng.choice(self.clients).replica.root if self.near.draw() else None
            change = None
            if kind == "contact":
                change = social.new_contact(near or pools["Identity"].choice(rng))
            elif kind == "delete":
                cls = self.delete_classes.draw()
                contacts = social.contacts_of(data, near) if near else []
                oid = rng.choice(contacts) if contacts else pools[cls].choice(rng)
                if oid not in self.roots:
                    change = social.delete(oid)
            elif kind == "unlink":
                contacts = social.contacts_of(data, near) if near else []
                cid = rng.choice(contacts) if contacts else pools["Contact"].choice(rng)
                ref = social.referenced(data, cid)
                if ref is not None:
                    change = [DeleteLink(ref)], {cid, ref.dst}
            if change is None:
                cls = rng.choice(["Identity", "Contact", "Event"])
                change = social.update(near or pools[cls].choice(rng))
            mutations, ids = change
            if ids & touched:
                continue  # one change per object per transaction
            touched |= ids
            batch += mutations
        return batch

    def push_mutation(self, client: Client):
        """A client write: update its own identity when it holds it,
        otherwise create an event."""
        root = client.replica.root
        if root in client.replica.data.objects:
            return self.social.update(root)[0][0]
        eid = self.social.fresh("E")
        return CreateObject.make(eid, "Event", {"title": self.social.title()})

    # -- executing one operation --------------------------------------------

    def run(self, op: tuple, tally: Tally) -> None:
        kind = op[0]
        if kind in ("sync", "first_sync"):
            self.sync(op[1], kind, tally)
        elif kind == "commit":
            start = time.perf_counter()
            self.store.apply(op[1])
            tally.add("commit", (time.perf_counter() - start) * 1e3)
            self.social.note(op[1])
        else:
            client, mutation = op[1], op[2]
            start = time.perf_counter()
            client.replica.push_local_change(mutation, self.store)
            tally.add("push", (time.perf_counter() - start) * 1e3)
            self.social.note([mutation])

    def sync(self, client: Client, kind: str, tally: Tally | None) -> None:
        replica, store = client.replica, self.store
        data = store.data
        start = time.perf_counter()
        delta = rs_sync.timestamp_sync(replica.cursor, data, store.log, replica.exprs, self.schema)
        replica.apply_delta(delta)
        replica.gc_sweep()
        if tally is not None:
            tally.add(kind, (time.perf_counter() - start) * 1e3)
            if kind == "sync":
                tally.delta_bytes.append(len(rs_delta.render_delta(delta)))
        if self.tracer is not None:
            self.shadow(client, data, delta)
        client.last_data = data

    def shadow(self, client: Client, data: SystemData, delta: DeltaSet) -> None:
        """Traced run only: what the snapshot oracle would have sent, diffed
        from the data object of the client's previous sync.  Commits replace
        store.data, so that object is a stable snapshot."""
        start = time.perf_counter()
        replica = client.replica
        oracle = rs_oracle.oracle_sync(
            replica.root, data, client.last_data, replica.exprs, self.schema, self.store.counter
        )
        self.tracer.counts["sync.ts_elements"] += delta_size(delta)
        self.tracer.counts["sync.oracle_elements"] += delta_size(oracle)
        self.excluded_s += time.perf_counter() - start

    # -- after the timed phase ----------------------------------------------

    def check(self) -> Check:
        """One catch-up sync per client, then diff each replica against the
        relevant slice of the server data: objects, links and states."""
        for client in self.clients:
            self.sync(client, "catch-up", None)
        decls = {
            c.name: ClientDecl(c.name, c.replica.root, c.replica.exprs) for c in self.clients
        }
        ctx = RunContext(
            scenario=Scenario(self.schema, decls),
            mode="timestamp",
            store=self.store,
            oracle=SnapshotOracle(self.schema),
            replicas={c.name: c.replica for c in self.clients},
        )
        check = Check()
        for client in self.clients:
            check.run += 1
            missing, extra, mismatches = compare_replica(ctx, client.name)
            if missing or extra or mismatches:
                check.divergences += 1
                if not client.user_rooted:
                    check.known_defect += 1
                check.notes.append(
                    f"{client.name} ({client.shape}): {len(missing)} missing, "
                    f"{len(extra)} extra, {len(mismatches)} state mismatches"
                )
        return check

    def log_counts(self) -> tuple[int, int]:
        return log_counts(self.store.log.dump())


def log_counts(dump: str) -> tuple[int, int]:
    """(entries, tombstones) of a change-log dump."""
    rows = dump.splitlines()
    return len(rows), sum(1 for row in rows if row.split(" ", 2)[1] == "delete")


class FuzzWorld:
    """A corpus of fuzzer scenarios, run in turn through run_scenario."""

    def __init__(self, name: str, spec: Spec, seed: int) -> None:
        rng = random.Random(seed)
        bounds = rs_fuzz.FuzzBounds()
        self.corpus = [rs_fuzz._Generator(rng, bounds).build() for _ in range(spec.corpus)]
        self.asserts = [
            sum(isinstance(step, AssertConvergedStep) for step in s.steps) for s in self.corpus
        ]
        self.position = 0
        self.tracer = None
        self.excluded_s = 0.0
        self.check_state = Check()
        self.logs: list[tuple[int, int]] = []  # traced run: per-scenario log sizes
        self._last_ctx = None

    def joins(self) -> list:
        return []

    def next_op(self) -> int:
        index = self.position % len(self.corpus)
        self.position += 1
        return index

    def on_sync(self, ctx, index, client, applied, shadow) -> None:
        self.check_state.run += 1  # both-mode compares the replica after each sync
        if self.tracer is not None:
            self.tracer.counts["sync.ts_elements"] += delta_size(applied)
            self.tracer.counts["sync.oracle_elements"] += delta_size(shadow)
            self._last_ctx = ctx

    def run(self, index: int, tally: Tally) -> None:
        scenario = self.corpus[index]
        self._last_ctx = None
        start = time.perf_counter()
        reports = rs_runner.run_scenario(scenario, mode="both", on_sync=self.on_sync)
        tally.add("scenario", (time.perf_counter() - start) * 1e3)
        check = self.check_state
        check.run += self.asserts[index]
        check.divergences += len(reports)
        if len(check.notes) < 10:
            check.notes += [r.render().splitlines()[0] for r in reports[:3]]
        if self._last_ctx is not None:
            start = time.perf_counter()
            self.logs.append(log_counts(self._last_ctx.store.log.dump()))
            self.excluded_s += time.perf_counter() - start

    def check(self) -> Check:
        return self.check_state

    def log_counts(self) -> tuple[float, float]:
        if not self.logs:
            return 0.0, 0.0
        return (
            statistics.fmean(e for e, _ in self.logs),
            statistics.fmean(t for _, t in self.logs),
        )


def make_world(name: str, seed: int, small: bool = False):
    spec = (SMALL_SPECS if small else SPECS)[name]
    cls = FuzzWorld if name == "fuzz-corpus" else SyncWorld
    return cls(name, spec, seed)


def timed_loop(world, seconds: float | None, max_ops: int | None = None) -> Tally:
    """Run every client's first sync, then the seeded mix until `seconds`
    pass or `max_ops` operations (first syncs included) were attempted.

    The first syncs are a fixed amount of work before the window, so the
    window's throughput is that of clients already in steady state."""
    gc.collect()  # start every loop from the same heap, not set-up's garbage
    tally = Tally()
    start = time.perf_counter()
    for op in world.joins():
        _run_one(world, op, tally)
    joined, joined_failed = tally.attempted, tally.failed
    window = time.perf_counter()
    deadline = window + seconds if seconds is not None else math.inf
    limit = max_ops if max_ops is not None else math.inf
    while tally.attempted < limit and time.perf_counter() < deadline:
        _run_one(world, world.next_op(), tally)
    end = time.perf_counter()
    tally.wall_s = end - start
    tally.window_s = end - window
    tally.window_completed = (tally.attempted - joined) - (tally.failed - joined_failed)
    return tally


def _run_one(world, op, tally: Tally) -> None:
    tally.attempted += 1
    try:
        world.run(op, tally)
    except RelsyncError as exc:
        tally.failed += 1
        if len(tally.errors) < 5:
            tally.errors.append(f"{type(exc).__name__}: {exc}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
