(* The resource governor: one record bundling every way a chase run is
   allowed to end early — wall-clock deadline, stage fuel, element/fact
   budgets and a cooperative cancellation token — plus the structured
   outcome the engines report instead of the old [fixpoint : bool].

   Budgets and the deadline are polled at stage boundaries only, so a
   governed run cut at stage i is the bit-identical prefix of the
   ungoverned run: no trigger order, fresh id or counter ever depends on
   the governor.  The cancellation token is additionally polled inside
   the read-only discovery scans (see {!Cancel.poll}), where aborting is
   safe because the structure is not being mutated. *)

module Cancel = struct
  type t = { mutable tripped : bool }

  let create () = { tripped = false }
  let trip t = t.tripped <- true
  let reset t = t.tripped <- false
  let tripped t = t.tripped

  (* The inert token: shared by every ungoverned run, never tripped. *)
  let never = { tripped = false }

  exception Cancelled

  (* Hot-path polling: [with_polling] arms the token for the dynamic
     extent of a read-only scan; {!poll} raises [Cancelled] out of the
     scan, which the engine catches at the stage boundary.

     The armed state is DOMAIN-LOCAL.  Slices of different jobs run
     concurrently on separate worker domains (and a daemon can coexist
     with in-process governed runs); with a shared global, interleaved
     save/restores scramble each other, and a later scan can observe a
     *stale* token — notably an old daemon's tripped drain token, which
     then cancels every slice of a fresh daemon forever.  Domain-local
     armed state makes with_polling's save/restore properly nested per
     domain, so a scan only ever polls the token its own dynamic extent
     armed.

     [poll] sits on the innermost backtracking path of the hom join
     evaluator — millions of calls per scan — and [Domain.DLS.get] is
     ~9x the cost of a plain load, so the disarmed case (every
     ungoverned run: the CLI one-shots, the whole chase bench suite)
     must not pay it.  A process-global count of live [with_polling]
     extents guards the slow path: when it is zero — no domain armed
     anywhere — poll is a single [Atomic.get], matching the old
     one-ref-read discipline.  When any domain is armed, polls
     everywhere fall through to the domain-local check; only the
     domains actually inside a [with_polling] extent can raise. *)
  type armed = { mutable on : bool; mutable tok : t }

  let armed_key = Domain.DLS.new_key (fun () -> { on = false; tok = never })
  let armed_extents = Atomic.make 0

  let with_polling t f =
    let a = Domain.DLS.get armed_key in
    let saved_on = a.on and saved_tok = a.tok in
    a.on <- true;
    a.tok <- t;
    Atomic.incr armed_extents;
    Fun.protect
      ~finally:(fun () ->
        Atomic.decr armed_extents;
        a.on <- saved_on;
        a.tok <- saved_tok)
      f

  let poll () =
    if Atomic.get armed_extents > 0 then begin
      let a = Domain.DLS.get armed_key in
      if a.on && a.tok.tripped then raise Cancelled
    end
end

type budget_kind = Stages | Elems | Facts | Steps | Stop

type outcome =
  | Fixpoint
  | Budget of budget_kind
  | Deadline
  | Cancelled
  | Faulted of string

type t = {
  deadline : float option; (* absolute, on the Obs.Clock.now_s timeline *)
  max_stages : int;
  max_elems : int;
  max_facts : int;
  max_steps : int;
  cancel : Cancel.t;
}

let unlimited =
  {
    deadline = None;
    max_stages = max_int;
    max_elems = max_int;
    max_facts = max_int;
    max_steps = max_int;
    cancel = Cancel.never;
  }

let make ?deadline_in ?deadline ?(max_stages = max_int) ?(max_elems = max_int)
    ?(max_facts = max_int) ?(max_steps = max_int) ?(cancel = Cancel.never) () =
  let deadline =
    match (deadline, deadline_in) with
    | (Some _ as d), _ -> d
    | None, Some dt -> Some (Obs.Clock.now_s () +. dt)
    | None, None -> None
  in
  { deadline; max_stages; max_elems; max_facts; max_steps; cancel }

let is_unlimited g = g == unlimited

let cancelled g = Cancel.tripped g.cancel

let deadline_passed g =
  match g.deadline with None -> false | Some d -> Obs.Clock.now_s () > d

(* The stage-boundary poll: cancellation wins over the deadline so a
   Ctrl-C is always reported as such even on an expired run. *)
let interrupted g =
  if cancelled g then Some Cancelled
  else if deadline_passed g then Some Deadline
  else None

let has_size_budget g = g.max_elems < max_int || g.max_facts < max_int

let over_budget g ~elems ~facts =
  if elems > g.max_elems then Some (Budget Elems)
  else if facts > g.max_facts then Some (Budget Facts)
  else None

(* Arm hot-path cancellation polling only for a real token: ungoverned
   runs keep the disarmed single-ref-read fast path. *)
let with_scope g f =
  if g.cancel == Cancel.never then f () else Cancel.with_polling g.cancel f

(* The stage loop every chase shares.  A step that raises [Cancelled] or
   [Injected] may have left per-run state (dedup keys, a partial stage)
   ahead of the last boundary, so those endings report stage [i - 1] and
   never snapshot: the last boundary snapshot is the resumable one.
   Sizes are counted only under a size budget ([over_budget] reads
   nothing else), since the graph chase counts them in O(n). *)
let run_stages g ~span ~start_stage ~max_stages ~sizes ~stop ~snapshot_every
    ~snapshot step =
  let last_snap = ref (-1) in
  let snap i =
    if i > !last_snap then begin
      last_snap := i;
      snapshot i
    end
  in
  let finish i outcome =
    snap i;
    (i, outcome)
  in
  let max_stages = min max_stages g.max_stages in
  let rec go i =
    match interrupted g with
    | Some o -> finish (i - 1) o
    | None when i > max_stages -> finish (i - 1) (Budget Stages)
    | None -> (
        let triggers = ref 0 and fired = ref 0 in
        match
          Obs.Trace.with_span span
            ~args:(fun () ->
              [ ("stage", i); ("triggers", !triggers); ("fired", !fired) ])
            (fun () ->
              let t, f = step i in
              triggers := t;
              fired := f)
        with
        | exception Cancel.Cancelled -> (i - 1, Cancelled)
        | exception Failpoint.Injected site -> (i - 1, Faulted site)
        | () -> (
            if !fired = 0 then finish i Fixpoint
            else begin
              if (i - start_stage) mod snapshot_every = 0 then snap i;
              let budget =
                if has_size_budget g then
                  let elems, facts = sizes () in
                  over_budget g ~elems ~facts
                else None
              in
              match budget with
              | Some o -> finish i o
              | None -> if stop () then finish i (Budget Stop) else go (i + 1)
            end))
  in
  go (start_stage + 1)

let pp_budget_kind ppf k =
  Fmt.string ppf
    (match k with
    | Stages -> "stages"
    | Elems -> "elems"
    | Facts -> "facts"
    | Steps -> "steps"
    | Stop -> "stop")

let pp_outcome ppf = function
  | Fixpoint -> Fmt.string ppf "fixpoint"
  | Budget k -> Fmt.pf ppf "budget:%a" pp_budget_kind k
  | Deadline -> Fmt.string ppf "deadline"
  | Cancelled -> Fmt.string ppf "cancelled"
  | Faulted site -> Fmt.pf ppf "faulted:%s" site

(* The CLI exit-code taxonomy (documented in bin/redspider.ml): 0
   success/fixpoint, 1 violation or unrecovered fault, 2 usage, 3
   budget/deadline cut, 4 cancelled. *)
let exit_code = function
  | Fixpoint -> 0
  | Budget _ | Deadline -> 3
  | Cancelled -> 4
  | Faulted _ -> 1
