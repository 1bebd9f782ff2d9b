(* Red Spider Meets a Rainworm — umbrella library.

   Re-exports every layer of the reproduction of Gogacz & Marcinkowski,
   "Red Spider Meets a Rainworm: Conjunctive Query Finite Determinacy Is
   Undecidable" (PODS 2016), plus a small high-level API mirroring the
   paper's headline statements.

   Layer map (bottom to top):

     Relational   finite structures, homomorphisms, green/red painting
     Cq           conjunctive queries, evaluation, containment, cores
     Tgd          TGDs, the chase, green-red TGDs T_Q (Section IV)
     Thue         semi-Thue rewriting (Section VIII.A's formalism)
     Rainworm     rainworm machines, Turing machines, the TM compiler
     Spider       Level 0: spiders, spider queries, the ♣ algebra
     Swarm        Level 1: swarms, L₁ rules, compile/decompile
     Greengraph   Level 2: green graphs, L₂ rules, Precompile, PG words
     Separating   Section VII: T∞, T□, grids, Theorem 14
     Reduction    Section VIII: ∆ → T_M, finite models, Theorem 5
     Determinacy  CQDP/CQfDP instances and solvers
     Ef           Ehrenfeucht–Fraïssé games and Theorem 2
     Oracle       differential-testing and invariant-audit harness
     Resilience   resource governor, checkpoint/resume, failpoints
     Serve        redspiderd: the preemptive job daemon + client
     Campaign     crash-tolerant sharded oracle campaigns + chaos gate
     Obs          monotonic clock, metrics registry, span tracing *)

module Obs = Obs
module Resilience = Resilience
module Relational = Relational
module Cq = Cq
module Tgd = Tgd
module Thue = Thue
module Rainworm = Rainworm
module Spider = Spider
module Swarm = Swarm
module Greengraph = Greengraph
module Separating = Separating
module Reduction = Reduction
module Determinacy = Determinacy
module Ef = Ef
module Oracle = Oracle
module Serve = Serve
module Campaign = Campaign

(* --- the paper's headline statements, as runnable functions ----------- *)

(* Theorem 5 / Theorem 1: the reduction from rainworm halting to CQfDP.
   [reduce_machine machine] yields the CQfDP instance (Q, Q0) such that Q
   finitely determines Q0 iff the rainworm creeps forever. *)
let reduce_machine machine =
  let p = Reduction.Pipeline.of_machine machine in
  ( Determinacy.Instance.make
      ~views:p.Reduction.Pipeline.level0.Greengraph.Precompile.queries
      ~q0:p.Reduction.Pipeline.q0,
    p )

(* Theorem 14: the separating rule set T (finitely leads to the red
   spider, does not lead to it) as green-graph rules. *)
let separating_rules = Separating.Tbox.t_full

(* Bounded determinacy solvers (Section IV).  Both are necessarily
   incomplete: Theorem 1 says CQfDP is undecidable, and [GM15] says CQDP
   is too. *)
let unrestricted_determinacy = Determinacy.Solver.unrestricted
let finite_determinacy = Determinacy.Solver.finite
