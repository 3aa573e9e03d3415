//! # aspen-stream
//!
//! ASPEN's **distributed stream engine** — the PC-side query runtime of
//! the paper (its §3 "distributed stream engine", detailed in ref \[11\]).
//! It executes windowed Stream SQL plans incrementally and maintains
//! **recursive stream views** (transitive closure) with provenance-backed
//! deletion support, which is what computes SmartCIS's building routes in
//! real time.
//!
//! ## Public surface
//!
//! * [`ShardedEngine`] — the one engine type
//!   (`ShardedEngine::new(catalog, shards)` or
//!   [`ShardedEngine::with_config`]; [`StreamEngine`] is a type alias
//!   for it, kept for the `benchmark/` crate). Its verbs, by group:
//!   - *register*: `open_session` / `register` / `register_in` /
//!     `register_sql` / `register_plan` / `register_view` /
//!     `close_session`;
//!   - *lifecycle*: `pause` / `resume` / `deregister` / `subscribe` /
//!     `tune_query` / `auto_tune` / `migrate` / `rebalance_now` (a
//!     cluster's nodes move a query between them under its one id);
//!   - *ingest*: `on_batch` / `on_deltas` / `heartbeat`;
//!   - *read at a [`Consistency`]*: `snapshot[_at]` / `telemetry[_at]`,
//!     plus `resident_state`, `view_snapshot`, `display_snapshot`,
//!     `executor_stats`, `plan_cache_stats`, `journal`.
//!
//!   Every lifecycle verb is a composition of three private primitives
//!   in [`shard`] — **build** (compile + sink + start + replay),
//!   **route** (land the runtime; unless it is paused, attach its log
//!   cursors and add its route counts) and **unroute** (the inverse;
//!   cursors leave their positions). Build and the shard drain are the only
//!   fallible steps and always come first, so a verb that returns `Err`
//!   changed nothing (property-tested in `tests/lifecycle.rs`).
//! * [`EngineConfig`] — six construction-time fields, each with its
//!   default: `shards` (1), `scheduling` (pool iff shards > 1 and
//!   cores > 1, else sequential), `workers` (min(shards, cores)),
//!   `queue_depth` (32), `rebalance` (off), `spill` (off).
//! * [`QuerySpec`] / [`Registration`] / [`SessionId`] /
//!   [`ResultSubscription`] / [`Consistency`] — the client vocabulary.
//! * [`Cluster`] (+ [`ClusterConfig`], three fields) — N engines behind
//!   one coordinator with the same register / lifecycle / ingest / read
//!   verbs. Node and coordinator share one front end by composition:
//!   each owns a [`session`] `FrontEnd` (spec → bound plan through the
//!   plan-template cache, the view-spec check, the session table) and
//!   calls the one [`RebalanceController`] for the "observe every
//!   `interval_boundaries`" rule and the rebalance round. There is no
//!   engine trait: nothing outside `tests/` is generic over which of
//!   the two it holds.
//! * [`TelemetryReport`], the [`trace`] renderers, and
//!   [`ResidentState`] — the read-only observability surface.
//!
//! ## Execution model: batch-first signed dataflow
//!
//! Everything is a flow of signed [`Delta`]s (insert / retract, with
//! `|sign| > 1` encoding multiplicity), moved through the operator DAG as
//! whole [`delta::DeltaBatch`]es — never tuple-at-a-time. A wrapper batch
//! enters at a scan, the window stage folds it (plus any eager
//! evictions) into one delta batch that is **net by row** (a row that
//! arrives and is evicted within the step appears as neither; table and
//! view delta batches are consolidated once by the shard instead), and
//! each operator then processes the batch in a single
//! [`operators::DeltaOp::process_batch`] invocation. Batching amortizes
//! dispatch and allocation and shrinks the work itself — a grouped
//! aggregate emits one retract/insert pair per *touched group* per
//! batch, not per input delta.
//!
//! ```text
//! wrapper batch ──▶ Scan ▶ Window (net by row) ▶ Filter ▶ Join ▶ Agg ▶ Sink
//!    heartbeat(t) ────────┘ (expiry retractions, batched the same way)
//! ```
//!
//! Batch granularity is *not observable* in result values: pushing a
//! workload as one batch or as single-tuple batches yields the same
//! consolidated result multiset (property-tested in
//! `tests/stream_semantics.rs`). Output-row timestamps of aggregates may
//! differ across granularities (a group's row is stamped by the last
//! delta of the batch to touch it). The `Pipeline::ops_invoked` cost
//! proxy counts one unit per delta per operator, so the optimizer's
//! calibration is unchanged by batching.
//!
//! **An aggregate is its own result.** When an engine-placed query's
//! plan is an aggregate at the root — alone or under one projection,
//! below ORDER BY / LIMIT / OUTPUT — and it has no push channel, the
//! pipeline ends at the aggregate: the aggregate settles each touched
//! group and *counts* its retract/insert pair instead of building it
//! ([`operators::AggregateOp::count_batch`]), the count is charged to
//! `ops_invoked`, the projection's profile and the sink's
//! `deltas_applied` exactly as the emitted pair would have been, and a
//! read takes the rows off the aggregate's slots, rebuilding only those
//! of groups that changed since the last read ([`pipeline`] module docs).
//! The sink keeps no copy of them. A push channel needs deltas, so a
//! subscription turns such a query over to emitting (its sink first takes
//! the aggregate's rows); the standalone `Pipeline` always emits.
//!
//! **Addressed batches and indexed join sides.** A window's live set is
//! a suffix of its scan's arrival log, so the operator above it need
//! not copy it. A window step's batch is *addressed*: each delta names
//! the log row it inserts or retracts ([`window`]: a step is net by
//! row). A filter is a selection and passes the ids of what it keeps
//! when its output feeds an indexed join side (the only reader of ids);
//! any other operator ends the addressed region, and `Unbounded` scans
//! and signed delta batches (a table's, a view's — they bypass windows)
//! never start one. A join side fed by an addressed region — `Filter* →
//! Scan` of a *stream* under a `ROWS` / `RANGE` / `TUMBLING` window,
//! decided from the plan at compile time — is *indexed*: it copies
//! nothing and keeps no index of its own. The rows and their key index
//! belong to the scan's window: the shard's source log while the scan is
//! a cursor (moved or not: ids name the same rows on every log), the
//! pipeline's own `WindowOp` otherwise. A log keeps one `key hash → row
//! ids` index per key columns and filter chain its indexed sides ask
//! for, shared by every such side on the shard (a long window and a
//! short one over the same key keep one index and each reads its own
//! suffix), and charged once, to the log; a side keeps only the interval
//! `[head, tail)` of that index its window holds, and fetches a tuple by
//! id only to emit a match; every other side copies its rows as before
//! ([`operators::JoinOp`], [`window`]). Fetch-by-id is sound because a
//! shard runs every log step as **step → deliver → release**: all
//! cursors move, every pipeline runs with read access to all logs, and
//! only then are rows below the minimum head dropped, from the log and
//! its indexes — a retraction on one side of a join can still read rows
//! the same step expires on the other. A side out of step with its
//! window is an error, not a missed match — one counting rows its index
//! dropped, an id in its interval that resolves to no row, a retraction
//! of a row that is not the oldest it holds under its key — and signed
//! deltas for a stream whose window a live query indexes are refused at
//! admission (`on_deltas` returns `InvalidArgument` before any shard
//! runs): they name no row.
//!
//! ## Source logs and window cursors (and the plan-template cache)
//!
//! SmartCIS workloads are many displays and visitors watching the *same*
//! building feeds — parameterized variants of a few query shapes, each
//! through its own window — so the engine dedups both the *front-end*
//! and the *window state* of repeats:
//!
//! * **Plan-template cache** — SQL registrations resolve through
//!   `aspen-optimizer`'s `PlanCache`: the statement is canonicalized
//!   (`aspen-sql`'s `canon` module normalizes alias names and conjunct
//!   order and lifts comparison constants into parameter slots), so
//!   every variant of a template hashes to one cache key. A repeat of
//!   the exact SQL string skips parse *and* bind; a new variant of a
//!   known template skips bind and pays only parse + constant
//!   substitution. Both tiers are LRU-bounded; `CREATE VIEW` always
//!   re-binds (it mutates the catalog). Always on; registering a bound
//!   plan (`register_plan`) is the path that never touches it.
//!
//! * **One arrival log per source** — each shard keeps, per stream (or
//!   device) source some local query scans, one append-only arrival
//!   log: the columnar buffer a window would own, written once per
//!   tuple. Every stream scan of every plan — any window spec, both
//!   sides of a join, both aliases of a self-join — attaches to its
//!   source's log as a **cursor**; only the operators above the window
//!   and the sink stay per-query. N windows over a stream store it once,
//!   not N times — and not once per shard: rows are numbered by source
//!   at admission, so every shard's log gives a tuple one row id, and a
//!   sealed segment is stored once per engine, in its source's segment
//!   pool, however many shards' logs hold it. The invariants:
//!
//!   - *Contiguous suffix.* A window sits directly above its scan, so
//!     its live set is always the suffix `[head, tail)` of the arrival
//!     order. The cursor is that `head` (plus the tumbling pane):
//!     `ROWS n` evicts while `tail − head > n`, `RANGE` expires while
//!     the row at `head` is out of the window, `TUMBLING` jumps
//!     `head = tail` on rollover. A cursor holds no per-row state.
//!   - *O(1) attach.* A new cursor starts at `head = tail` — streams
//!     are never replayed — so registering (or resuming) a window costs
//!     the same on a cold log and on one holding 20 000 rows.
//!   - *Min-head release.* The log drops rows below the minimum head of
//!     its cursors (unbounded windows buffer nothing and pin nothing; a
//!     log with no pinning cursor appends nothing), so it never retains
//!     a row no window can still retract. The last cursor out frees it.
//!   - *Cursor classes.* Cursors in equal window state `(spec, head,
//!     pane)` — every `Unbounded` cursor, every same-spec window whose
//!     head has caught up — emit the same deltas on the next step, so
//!     the log steps **classes**: one materialized batch
//!     per class per step, borrowed by every member's pipeline, whose
//!     own cost starts at its first operator. Classes have no registry;
//!     the key is recomputed per step, so a late cursor joins the
//!     senior class of its spec by itself (first expiry reaching its
//!     attach row / `n` arrivals / next rollover), detach and
//!     pause take nothing from the classmates, and all members step
//!     before the first delivery — a failing sink cannot desynchronize
//!     its class.
//!   - *Scan-order delivery.* Each cursor feeds its query its
//!     window's net deltas for the step — exactly the batch a private
//!     window emits, both being the same state machine — and
//!     a query's scans are fed in scan order, so snapshots, push
//!     streams, `ops_invoked` and per-query telemetry are bit-identical
//!     to private execution.
//!   - *Private path.* A private `WindowOp` is the same state machine
//!     over a log of its own with exactly one cursor — append, step,
//!     release below the head — so private = cursor by construction (N
//!     cursors ≡ N private windows is a seeded property in
//!     `window.rs`). Table scans keep one (their retained state replays
//!     into each registration — state a shared log must not absorb), as
//!     does direct `Pipeline` / `WindowOp` use, and a recursive view
//!     puts one in front of each base it scans under a bounded spec.
//!     Migration moves positions: rows are numbered by source once per
//!     engine (per cluster), so a moved cursor rejoins the recipient's
//!     log at its frame, which back-fills only the rows below its floor
//!     it lacks, and stays shared. The equivalence baseline is the test
//!     kit's `Private` system (`tests/common/`): one standalone
//!     [`pipeline::Pipeline`] and [`Sink`] per query, outside any engine.
//!   - *Grouped filters.* Template variants differ only in a constant,
//!     so the filter directly above a cursor-fed stream scan is usually
//!     the same `col op constant` at n constants. When it is exactly
//!     `Col op Lit` or `Lit op Col` with `op` one of `= < <= > >=`, a
//!     constant that is not NULL or NaN (and for a range, one
//!     comparability class: numbers — an `Int` below 2⁵³ in magnitude,
//!     or a `Float` — text, or stamps), and it keeps no row ids for an
//!     indexed join side, the query does not run it: the log's filter
//!     index does, once per (column, operator) group per class batch —
//!     a hash from constant to members for `=`, members sorted by
//!     constant for a range — so a delta costs O(log n + matches), not n
//!     predicate calls ([`grouped`]; `filter_probes` counts the deltas
//!     probed). Each member gets exactly its `FilterOp`'s output and
//!     runs on from the filter's parent. The charging rule: the filter
//!     hop is charged the whole class batch — in `ops_invoked`,
//!     `tuples_in` and the op profile's invocations and deltas, as if
//!     it had run — and an even share of the probe's measured busy
//!     time. `ops_invoked` stays the *logical* cost the rebalancer,
//!     `auto_tune` and the optimizer's calibration read. Every other
//!     filter, and every private path, runs `FilterOp`; the private
//!     paths are the oracle (`tests/grouped_filters.rs`).
//!
//!   Shared-vs-private equivalence under full lifecycle churn
//!   (register / deregister / pause / resume / migrate, all three
//!   scheduling modes) is a row of the test kit's event matrix
//!   (`tests/common/`, rows in `tests/sharding.rs`). Log
//!   work meters once on the shard; each query's `tuples_in` and
//!   `ops_invoked` count what a private run would have counted.
//!
//! ```text
//!                       ┌ class(RANGE 30s, head 17) ── one batch ─┬▶ Filter(>20) ▶ Sink q1
//! batch ─▶ log(Events) ─┤   windowed once, net by row             ├▶ Filter(>35) ▶ Sink q2
//!          (rows once)  │                                         └▶ Agg         ▶ Sink q3
//!                       ├ class(ROWS 4, head 96) ───── one batch ──▶ Join ───────▶ Sink q4
//!                       └ class(TUMBLE 1m, pane 3) ─── one batch ───┘
//! ```
//!
//! Tables and views pay the same once: `EngineShard::push_deltas`
//! consolidates an admitted delta batch one time and every subscribed
//! scan borrows it.
//!
//! [`shard::ShardedEngine::resident_state`] (`source_logs`,
//! `log_cursors`, `cursor_classes`, and `window_tuples` = rows retained
//! in logs and private windows) and the per-shard `log_rows` /
//! `cursors` / `cursor_classes` gauges and `window_batches` /
//! `window_deliveries` / `filter_probes` counters of the telemetry export,
//! with each query's `grouped_filter` flag, are the observability
//! surface: `window_deliveries / window_batches` is how many windows
//! shared each batch of window work, and `filter_probes` against the
//! filter op's deltas how much filter work grouping shared, exact per
//! seed.
//!
//! ## Sessions, registration, and the query lifecycle
//!
//! The engine is a *service*: clients open a [`session::SessionId`],
//! register [`session::QuerySpec`]s (SQL text or a bound plan, a
//! [`session::Delivery`] mode, and per-query micro-batch knobs), and
//! retire queries when they leave. Registration returns a typed
//! [`session::Registration`] — `Query(QueryHandle)` for a continuous
//! `SELECT`, `View(SourceId)` for a `CREATE VIEW`. A query is live until
//! `deregister` unroutes and drops it, or `pause` unroutes it (sink
//! frozen but readable) until `resume` builds it afresh — the same
//! retained-table/view replay a late registration gets — and routes it
//! again. Closing a session retires every query it still owns. Ingest
//! cost therefore tracks **live** fan-out, never the historical
//! registration count.
//!
//! ## Delivery: snapshot polling and push subscriptions
//!
//! Every query supports snapshot polling (`snapshot` re-applies ORDER
//! BY / LIMIT over the maintained result multiset). A query registered
//! with [`session::QuerySpec::push`] — or subscribed later via
//! `subscribe` — additionally owns a [`session::ResultSubscription`]:
//! at every batch boundary (ingest or heartbeat) the engine appends the
//! consolidated output deltas of that boundary to the subscription
//! queue, and the client drains whole `DeltaBatch`es at its own pace.
//! Accumulating every drained delta reconstructs exactly the polled
//! snapshot multiset; late subscription, pause, and resume keep that
//! invariant by delivering consolidated catch-up diffs. The per-query
//! micro-batch knobs shape this stream: `max_delay` holds output deltas
//! across boundaries (coalescing cancels churn before it is ever
//! delivered) until they age past the delay, and `max_batch` both
//! releases a hold early and caps the size of each delivered batch.
//!
//! ## Source-routed subscriptions, sharded
//!
//! The engine keeps a routing index from `SourceId` to the live queries
//! and recursive views that actually scan that source, maintained at
//! every lifecycle transition. `on_batch` / `on_deltas` touch only
//! subscribers — ingest cost scales with a source's fan-out, not with
//! the total number of registered queries — and `heartbeat` visits only
//! pipelines that react to time (every view pays an O(1) head check per
//! windowed base). This is what
//! lets one building-wide sensor feed serve many concurrent dashboards.
//!
//! Since the sharding refactor that index and the pipeline set are
//! *partitioned*: [`shard::ShardedEngine`] hash-places every query on
//! one of N worker shards by `QueryId`, and each shard owns its
//! queries' runtimes. The coordinator keeps one **route-count table**
//! beside the retained table store and the per-source meters, plain
//! fields with no lock (every admitting and lifecycle call takes
//! `&mut self`): per key — a source's scans, a stream's join indexes,
//! the clock, the push flush — a live count per shard, which every
//! lifecycle transition adjusts by one per key of the query. Admission
//! fans out only to shards whose count is live, and no transition ever
//! rebuilds the route table.
//! Recursive views are **maintained at admission**: the coordinator owns
//! them, the call that admits a base boundary maintains them, and their
//! output deltas fan into the query shards as ordinary delta boundaries,
//! like any other source's — the executor has exactly one cell per
//! shard. The shard-count invariance property — including under
//! interleaved register/deregister/pause/migration churn with push
//! subscriptions attached — is tested in `tests/sharding.rs`.
//!
//! ## Execution: a persistent worker pool with boundary-yield scheduling
//!
//! Shard work is driven by the `executor::Executor` the engine owns
//! for its lifetime — no per-call thread churn. Every ingest or
//! heartbeat **batch boundary** becomes one task per involved shard,
//! admitted into that shard's bounded FIFO queue; per-shard order is
//! exactly submission order (the correctness contract), while order
//! *across* shards is unconstrained — shards share no query state, so
//! only placement, never results, depends on it. In pool mode
//! ([`executor::Scheduling::Pool`]) persistent workers drain the queues
//! with batch boundaries as yield points: a worker runs one task, then
//! returns the shard to the tail of the ready list, so a shard hosting
//! a slow query chews through its backlog while siblings' tasks keep
//! flowing. Ingest admission returns at *enqueue* — a device stream
//! never pauses for a slow consumer — blocking only when a bounded
//! queue fills (backpressure keeps memory flat under sustained skew),
//! while the clock and session bookkeeping stay on the ingest thread
//! and table retention rides the admitting call. Every executor
//! cell publishes a `(submitted, applied)` **watermark** pair, and
//! reads pick a consistency level ([`session::Consistency`]): a `Fresh`
//! read quiesces exactly what it touches — a snapshot drains its own
//! query's shard, a migration
//! quiesces the two affected shards' queues, not the world — while a
//! `Cut` read (the `telemetry` default) takes no barrier at all: it
//! reads each shard's state at its applied watermark under the shard
//! lock and reports the submitted-minus-applied backlog as per-shard
//! lag, so a monitoring loop polling telemetry never stalls ingest.
//! Immediately after a `Fresh` drain the two levels agree byte for byte
//! (property-tested under full churn in `tests/sharding.rs`).
//! Sequential mode runs the same tasks inline (identical results, no
//! threads — the default for one shard or one core), and
//! [`executor::Scheduling::Deterministic`] replays a seeded
//! interleaving single-threaded, which is what makes the
//! scheduling-determinism property in `tests/sharding.rs` assertable
//! event for event. Slow-query isolation (siblings stay fresh, the
//! admission queue stays bounded) is a test in `tests/sharding.rs`;
//! per-worker busy/steal meters surface in
//! [`telemetry::TelemetryReport::workers`].
//!
//! ## Telemetry and adaptive rebalancing
//!
//! The engine meters itself continuously: each shard keeps lock-local
//! counters (tuples in, slices run, busy wall time) and each query's
//! pipeline/sink carry their own (`tuples_in`, `ops_invoked`, output
//! deltas, push batches) — metering is plain integer adds on paths the
//! shard already owns. [`shard::ShardedEngine::telemetry`] assembles
//! one coherent [`telemetry::TelemetryReport`]; it is the *single*
//! metering surface
//! (the old per-accessor statistics folded into it).
//!
//! Two control loops close over those meters:
//!
//! * **Placement** — hash placement spreads query counts, not cost.
//!   [`rebalance::RebalanceController`] diffs successive reports into
//!   windowed per-query loads, blends them with each query's
//!   resident-state bytes gauge ([`rebalance::RebalanceConfig`]'s
//!   `bytes_weight` — a memory-fat shard drains even when operator
//!   counts are balanced), and, on sustained skew, plans greedy
//!   migrations; [`shard::ShardedEngine::migrate`] executes them by
//!   *moving the live runtime* (pipeline state, sink, push subscription)
//!   between shards — unroute, move, route, with the runtime carried
//!   over instead of rebuilt, so snapshots, push accumulation, and ops
//!   totals are provably unchanged (property-tested in
//!   `tests/sharding.rs` under interleaved lifecycle churn and forced
//!   migrations). Enable with [`session::EngineConfig::rebalance`].
//! * **Micro-batch knobs** — a query registered with
//!   [`session::QuerySpec::auto_knobs`] hands its `max_batch` /
//!   `max_delay` to the optimizer: `auto_tune` measures the query's
//!   output-delta rate and the boundary rate, asks a chooser built on
//!   the measured per-batch and per-delta delivery costs
//!   (`aspen-optimizer`'s `choose_knobs`), and retunes the live sink
//!   through `tune_query`.
//!   The app layer also publishes measured per-source ingest rates back
//!   into the catalog, so the optimizer's cardinality estimates track
//!   observed reality instead of registration-time guesses.
//!
//! ## Columnar operator state and the spill tier
//!
//! Hot operator state — window buffers, retained-table
//! [`state::BagState`]s, materialised join sides ([`state::KeyedState`])
//! — is laid out **columnar**, the one layout there is: tuples are
//! shredded into per-column primitive vectors in 32-row segments managed
//! by the vendored `columnar` shim, with per-tuple multisets replaced by
//! a hash index over row ids. Only a store's one active segment holds the
//! append form; sealing re-encodes every column — and the segment's
//! stamps — at the width its values need, keeping whichever encoding
//! measures the fewest bytes: frame-of-reference ints (`min + u8 | u16 |
//! u32`), run-length runs, text as one byte blob with narrow offsets
//! (a per-segment dictionary, or plain when the strings are distinct),
//! liveness as a bit a row. The data alone selects; there is no knob.
//! Probes compare against the encoded columns in place. Every state
//! structure is property-tested in
//! [`state`] and [`window`] against a naive model of its contract —
//! exact retraction multiplicities, per-occurrence arrival-order
//! replay, debt healing, oldest-first eviction — resident and spilled.
//!
//! Two things fall out of the columnar layout:
//!
//! * **Byte-accounted state** — every state holder reports one measured
//!   [`Footprint`], added up into
//!   [`shard::ResidentState`] and [`telemetry::TelemetryReport`]:
//!   segments report their actual encoded footprint, and
//!   `ResidentState` states the split (`log_bytes`, `table_bytes`, the
//!   rest per query: `aspen_query_state_bytes`, with the live aggregate
//!   groups as `aspen_query_groups`). Those gauges feed the rebalancer's
//!   blended score above; a unit test in [`state`] pins a fixed
//!   fixture's bytes under a ceiling. Aggregate groups are slots in typed
//!   columns charged at capacity ([`operators::AggregateOp`]), their
//!   keys included: an `INT`, `FLOAT`, `TIMESTAMP` or `BOOL` key is an
//!   8 B word until a key not of its type turns the column into `Value`
//!   cells. Held to 0.8–1.25× of a counting allocator by
//!   `tests/state_accounting.rs`.
//! * **Spill tier** — [`session::EngineConfig::spill`] sets a
//!   per-structure resident-byte threshold: cold *segments* (oldest
//!   first) page to disk and fault back transparently on access, while
//!   timestamps, liveness, and weights stay resident (about 4¼ bytes a
//!   row for a sensor stream) so window expiry scans never touch
//!   spilled files. A spill file that is missing, short or undecodable
//!   makes its segment's rows read as absent — an indexed join side then
//!   fails with an execution error instead of dropping matches; a file
//!   that cannot be written leaves its segment resident until the next
//!   seal. Both count (`spill_{read,write}_failures`) in `ResidentState`,
//!   in `ShardLoad` and, for tables, in the `table_*` rows. Live
//!   migration — including cross-node — snapshots through the same
//!   tuple-level API, so moved state re-lands columnar (respilling under
//!   the recipient's config) with the existing no-replay invariants intact.
//!
//! ## Recursive views
//!
//! [`recursive::RecursiveView`] materializes `CREATE RECURSIVE VIEW`
//! definitions by semi-naïve fixpoint, maintains them under base-relation
//! *insertions* incrementally, and under *deletions* via provenance-
//! guided DRed (overdelete the tuples whose recorded derivation touched
//! the deleted base facts, then rederive). Experiment E6 measures exactly
//! this machinery against full recomputation. A base scanned under a
//! bounded window sits behind a `WindowOp`, so its facts arrive and
//! expire exactly like a query's over the same scan: a heartbeat is
//! `WindowOp::advance` per windowed base, then the deletion pass. Every
//! map and set a view iterates shares one fixed hasher, so the
//! derivation a tuple records, the order deltas are emitted in and the
//! E6 counters follow from the input alone, run after run.
//!
//! ## Distribution: the cluster layer
//!
//! Everything above describes *one node*. The [`cluster`] module runs
//! **N of them**: independent [`shard::ShardedEngine`] instances —
//! each with its own executor, shards, route counts, query runtimes and
//! copy of every recursive view — joined by `aspen-netsim` simulated LAN
//! links behind one coordinator ([`cluster::Cluster`]) that owns the
//! global catalog, the source→home map and placement, and speaks the
//! same [`session::QuerySpec`] front-end. It keeps no query table and no
//! stream counter: a query's node is the node holding its id, and a
//! stream's home node numbers it. Every cross-node byte is real in
//! the simulation's terms: a shipped batch is serialized by the
//! exchange egress operator into a netsim wire frame, charged against
//! the directed link's [`cluster::WireStats`] under the
//! [`cluster::LanModel`], decoded on the far side, and re-admitted
//! through the remote node's ordinary ingest (a stream batch at its
//! cluster-wide number) — so retained-table replay, push accumulation,
//! watermark consistency, and log row ids hold unchanged clusterwide. Hash-exchange
//! ([`cluster::Cluster::register_hash_partitioned`]) scatters keyed
//! sources across all nodes by key hash, so a repartitioned
//! join's members compute disjoint key ranges whose merged snapshots
//! equal the monolithic result. Live migration runs the node's four
//! calls on two nodes, by log position: the recipient drains, the donor
//! retires the query's runtime (operator state, sink ledger, push
//! subscription, cursor positions, the window rows the recipient lacks)
//! and the recipient lands it with **no replay** —
//! same snapshot, same ops total, and a failed attempt leaves the query
//! on the donor — driven manually or by a cluster-level
//! [`rebalance::RebalanceController`] consuming the merged per-node
//! telemetry of [`cluster::Cluster::cluster_report`]. The churn
//! property in `tests/cluster.rs` pins 1/2/4-node clusters against a
//! single-node oracle event for event.
//!
//! ## Observability: the trace plane
//!
//! The [`trace`] module is the engine's end-to-end observability layer.
//! It is always on (the benchmark reports its cost as
//! `bench.trace_overhead_share`):
//!
//! * **Latency histograms** — [`trace::LatencyHistogram`] is a
//!   40-bucket log₂ histogram (mergeable: merging two histograms
//!   answers the same percentiles as recording every sample into one).
//!   Each admitted batch is stamped with a [`trace::TraceCtx`] and
//!   resolved at sink apply into the owning query's ingest→apply
//!   histogram; shard queues stamp enqueue time and record queue-wait
//!   the same way. [`telemetry::TelemetryReport::ingest_latency`] /
//!   [`telemetry::TelemetryReport::queue_wait`] merge them engine-wide.
//! * **Cross-node tracing** — a batch shipped by the cluster's exchange
//!   carries its `TraceCtx` *inside* the encoded wire frame
//!   (`Traced`, its tick at a fixed width), and the receiving node charges the simulated
//!   wire hop into its own histogram — so cluster percentiles include
//!   the network. A sampled [`trace::SpanJournal`] records admissions,
//!   Ship/Arrive pairs at the exchange, migrations, rebalance
//!   decisions, and knob retunes; span conservation (every Ship has its
//!   Arrive) is property-tested in `tests/cluster.rs`.
//!   [`cluster::Cluster::merged_latency`] merges per-node histograms
//!   over the control link as encoded `Histogram` frames.
//! * **Measured-cost profiling** — each pipeline times its operators
//!   per kind into a [`trace::OpProfile`];
//!   [`trace::OpProfile::ops_per_sec_observed`] is the measured
//!   operator throughput, exported as the `ops_per_sec_observed` metric
//!   row. Nothing feeds it to the optimizer yet; its hook is
//!   `stream_cost::estimate_plan_calibrated`.
//! * **Export surface** — [`trace::render_prometheus`] / [`trace::render_json`]
//!   render a [`telemetry::TelemetryReport`] from one metric table (a row
//!   per metric, a table per report level; see [`telemetry`]): JSON key
//!   `name`, Prometheus family `aspen_<level prefix><name>` plus `_us` on a
//!   histogram and `_total` on any other counter.
//!
//! Histograms and op profiles are query state: they ride the sink and
//! pipeline through live migration (asserted under churn in
//! `tests/sharding.rs`), and their bucket encodings round-trip the
//! netsim codec exactly (property-tested in [`trace`] and
//! `aspen-netsim`).

pub mod cluster;
pub mod delta;
pub mod executor;
pub mod grouped;
pub mod operators;
pub mod pipeline;
pub mod rebalance;
pub mod recursive;
pub mod session;
pub mod shard;
pub mod sink;
pub mod state;
pub mod telemetry;
pub mod trace;
pub mod window;

pub use cluster::{Cluster, ClusterConfig, LanModel, WireStats};
pub use delta::{Delta, DeltaBatch};
pub use executor::{ExecutorStats, Scheduling};
pub use rebalance::{Migration, RebalanceConfig, RebalanceController};
pub use recursive::RecursiveView;
pub use session::{
    Consistency, Delivery, EngineConfig, QuerySpec, Registration, ResultSubscription, SessionId,
};
pub use shard::{QueryHandle, ResidentState, ShardedEngine, StreamEngine};
pub use sink::Sink;
pub use state::{Census, Footprint, SpillConfig, StateOptions};
pub use telemetry::{
    LoadWindow, QueryLoad, ShardLoad, TelemetryReport, WindowedQueryLoad, WorkerLoad,
};
pub use trace::{
    render_json, render_prometheus, LatencyHistogram, OpKind, OpProfile, Span, SpanJournal,
    SpanKind, TraceCtx,
};

/// This run's property-test seeds: `n` of them, in a block of their own
/// per `ASPEN_TEST_SEED` (CI sweeps a seed matrix).
#[cfg(test)]
pub(crate) fn test_seeds(n: u64) -> impl Iterator<Item = u64> {
    let base: u64 = std::env::var("ASPEN_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    (0..n).map(move |i| base.wrapping_mul(0x1000).wrapping_add(i))
}
