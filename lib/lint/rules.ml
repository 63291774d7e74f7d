type t = { id : string; title : string; hint : string; explain : string }

let all =
  [ { id = "D001";
      title = "no ambient randomness";
      hint = "draw from a seeded Softstate_util.Rng stream";
      explain =
        "Every stochastic draw must flow through the seeded, splittable \
         Softstate_util.Rng generators so a single integer seed reproduces a \
         whole run. Stdlib.Random is ambient state: Random.self_init seeds \
         from the environment, and even explicitly-seeded Stdlib.Random is a \
         process-global stream that cross-contaminates components. Any \
         mention of the Random module outside lib/util/rng.ml is a finding." };
    { id = "D002";
      title = "no wall-clock in simulation code";
      hint =
        "use Engine.now for simulated time; suppress with a reason for \
         CPU-time probes";
      explain =
        "Sys.time, Unix.gettimeofday and Unix.time read host clocks. If a \
         host clock reaches simulation state, packets, or trace output, \
         replays and --jobs merges stop being bit-identical. Observability \
         probes that deliberately measure wall-clock coupling must carry an \
         inline suppression naming the reason. The bench/ tree is exempt by \
         per-directory config: benchmarks measure wall time by definition." };
    { id = "D003";
      title = "no order-sensitive Hashtbl iteration";
      hint =
        "iterate sorted keys or an ordered structure (Map); suppress with a \
         reason when the fold is commutative";
      explain =
        "Hashtbl.iter and Hashtbl.fold visit bindings in hash-bucket order, \
         which depends on the hash function and resize history and is not a \
         stable contract across compiler versions. In lib/net, lib/core and \
         lib/sstp that order must never reach packets, traces, or results: \
         iterate keys sorted explicitly, use a Map, or — for genuinely \
         commutative aggregations (sums, building an unordered removal set) \
         — keep the fold and suppress with a reason stating why order \
         cannot leak." };
    { id = "D004";
      title = "no polymorphic comparison on floats";
      hint = "use Float.equal / Float.compare or an explicit tolerance";
      explain =
        "Polymorphic = / <> / compare on float-typed expressions is a \
         determinism and correctness trap: NaN compares unequal to itself \
         under =, yet equal under compare, and exact equality silently \
         encodes a zero tolerance. The check is syntactic: a comparison is \
         flagged when either operand is a float literal or an application \
         of a float operator (+. -. *. /. ~-. **)." };
    { id = "D005";
      title = "no Obj.magic or partial accessors in lib/";
      hint = "match explicitly; List.hd/Option.get raise on the empty case";
      explain =
        "Obj.magic defeats the type system, and List.hd / Option.get turn a \
         represented empty case into a runtime exception. Library code must \
         pattern-match the empty case explicitly so the checker's oracles \
         see invariant violations as findings, not crashes." };
    { id = "M001";
      title = "every lib module declares an interface";
      hint = "add a matching .mli next to the .ml";
      explain =
        "Each lib/**/*.ml must have a matching .mli. An explicit signature \
         is what keeps internal mutable state (tables, caches, counters) \
         out of reach of callers that could break replay determinism." };
    { id = "R001";
      title = "no shared mutable module state across domains";
      hint =
        "pass the state into the task, guard it with a sync module \
         (Atomic/Mutex), or suppress with the invariant that makes the \
         sharing safe";
      explain =
        "A closure handed to Domain.spawn or a Parallel task slot reaches \
         module-level mutable state (a ref, Hashtbl, Buffer, array or \
         mutable-record global) through the conservative call graph, and no \
         approved sync module mediates the access. Two domains touching \
         that state race: results stop being a function of the seed, and \
         the --jobs bit-identity contract breaks silently. The analysis is \
         whole-program and over-approximating — a finding means 'cannot \
         prove isolated', so a suppression must state the isolation \
         argument (read-only after init, domain-local by construction, \
         guarded elsewhere)." };
    { id = "R002";
      title = "no lazy forcing shared across domains";
      hint =
        "force before spawning, or replace the lazy with an eager value / \
         Domain-safe initialization";
      explain =
        "A lazy block (or memo table built on one) is reachable from more \
         than one domain. Forcing is an unsynchronized write: OCaml 5 \
         raises Lazy.Undefined on a racy double force, and even a lucky \
         interleaving makes which-domain-forced part of the observable \
         schedule. Force eagerly before the spawn, or restructure so each \
         domain owns its own suspension." };
    { id = "R003";
      title = "split the Rng before sharing it across tasks";
      hint = "give each task its own stream via Rng.split / Rng.create";
      explain =
        "A task closure draws from a Softstate_util.Rng generator without \
         creating or splitting its own stream, and the enclosing \
         definition never calls Rng.split. All tasks then advance one \
         generator's mutable cursor concurrently: a data race, and — even \
         when it happens to not crash — draw order depends on the domain \
         schedule, so replays diverge. Rng.split exists precisely for \
         this: derive one independent child stream per task from the \
         parent seed." };
    { id = "A001";
      title = "no closure construction on the hot path";
      hint =
        "hoist the closure out of the per-event path or pass a \
         preallocated function";
      explain =
        "A function marked [@hot] (or listed in the hot_paths config) \
         allocates a closure per call: a fun expression that captures its \
         environment, or a local function definition inside the hot body. \
         The ROADMAP's PDES target budgets zero allocation per event — \
         closure-per-event was exactly the pattern whose removal bought PR \
         2's 3.5x. Hoist the closure to a module-level definition, or \
         restructure so the capture happens once at setup." };
    { id = "A002";
      title = "no block construction on the hot path";
      hint =
        "reuse preallocated records/arrays, or return through fields \
         rather than options/tuples";
      explain =
        "A [@hot] function builds a heap block per call: a tuple, record, \
         non-constant constructor (Some, `Bucket), array/string/Bytes \
         allocation, ref cell or lazy block. Each is a minor-heap bump \
         plus eventual GC work multiplied by event count. Use the \
         slot-returning zero-alloc variants (Heap.top, Heap.slot_value, \
         Heap.drop_top), write results into preallocated storage, or \
         keep loop state in immutable locals (registers) instead of \
         refs." };
    { id = "A003";
      title = "no partial application on the hot path";
      hint = "supply all arguments at the call site";
      explain =
        "A call inside a [@hot] region supplies fewer non-optional \
         arguments than the callee's arity, so the runtime materializes an \
         intermediate closure per call. Saturate the application — or if \
         the partial application is deliberate staging, hoist it out of \
         the per-event path so it happens once." };
    { id = "A004";
      title = "no List building on the hot path";
      hint =
        "iterate arrays or preallocated buffers; keep list compaction on \
         amortized slow paths";
      explain =
        "A [@hot] function conses: a list literal, ::, @, or a \
         List.map/filter/sort family call. Lists allocate one 3-word block \
         per element and defeat cache locality on paths the engine runs \
         per event. Use the struct-of-arrays substrate, iterate in place, \
         or move the list surgery to an amortized slow path (bucket \
         compaction) behind an unannotated helper — and suppress there \
         with the amortization argument." };
    { id = "U001";
      title = "no export without a caller";
      hint =
        "delete the val from the .mli (and from the .ml if its own unit \
         does not use it), or keep it with (* lint: allow U001 (a) used \
         by test \"NAME\" *)";
      explain =
        "A val in a lib/ interface that no reference from another unit \
         resolves to, through the whole-program summaries with module \
         aliases expanded. References from test/ do not count: an export \
         only a test calls is surface no program needs. Delete it, or keep \
         it with a suppression naming the test that uses it to check \
         production behaviour: the reason must read (a) used by test \
         \"NAME\", with NAME a test a scanned test/ file defines. \
         lib/queueing is out of scope: its model APIs are reserved for the \
         model-agreement gates." };
    { id = "U002";
      title = "no optional label no program passes or constructor it builds";
      hint =
        "delete it, inlining the default, or keep it with (* lint: allow \
         U002 (a) used by test \"NAME\" *)";
      explain =
        "An optional label of a lib/ val that another unit uses but no \
         application passes (~l and ?l alike, so a forwarded ?l counts; an \
         unapplied reference passes none), or an exported constructor no \
         expression builds (patterns do not count): a configuration the \
         docs describe but no run uses. test/ does not count; a val no \
         other unit references is left to U001. \
         Delete it, or keep it under U001's reason form. lib/queueing is \
         out of scope." };
    { id = "U003";
      title = "no record field no program reads";
      hint =
        "delete the field, or keep it with (* lint: allow U003 (a) used by \
         test \"NAME\" *)";
      explain =
        "A field of a lib/ interface record, function-typed or not, whose \
         label no projection e.f or record pattern (puns included) in \
         program code names; a construction or { r with f = ... } reads \
         none. Also a mutable field no r.f <- v assigns. Labels match by \
         name alone; test/ does not count. Delete it, or keep it under \
         U001's reason form. lib/queueing is out of scope." };
    { id = "S001";
      title = "malformed suppression";
      hint =
        "write (* lint: allow RULE reason... *) with a non-empty reason; a \
         U-rule reason reads (a) used by test \"NAME\"";
      explain =
        "Inline suppressions are audit records, not escape hatches: the \
         grammar is (* lint: allow RULE reason... *) where RULE is a known \
         rule id and the reason is mandatory. A U001, U002 or U003 reason must \
         read (a) used by test \"NAME\", naming a test a scanned test/ \
         file defines with test_case or ~name. A suppression without a \
         reason, naming an unknown rule, with a U-rule reason in \
         another form or naming no defined test, or otherwise unparseable \
         is itself a finding — and it suppresses nothing." };
    { id = "E001";
      title = "unparseable source";
      hint = "fix the syntax error; the pass only analyses valid OCaml";
      explain =
        "The file failed to lex or parse, so no rule was checked. The pass \
         reports the error location and treats the file as a finding: \
         unanalysable source is unverified source." } ]

let find id = List.find_opt (fun r -> r.id = id) all
let is_known id = find id <> None
