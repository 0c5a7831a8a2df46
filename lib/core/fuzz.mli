(** The [repro fuzz] soak driver: random configurations, short trials,
    machine-checkable oracles, and shrinking of failures to a minimal
    deterministic repro command line.

    Each iteration derives a configuration (workload, policy, ratio,
    swap medium, fault plan, optional cgroup spec, optional chaos spec)
    from the iteration-seeded RNG and runs it through five oracles, in
    order:

    + {b complete} — the trial finishes without raising;
    + {b invariants} — a 25 ms audit cadence reports zero violations
      (the test-only [corrupt:] injector exists to make this fire);
    + {b jobs-identity} — results and traced event streams are
      structurally identical at [--jobs 1] and [--jobs 4];
    + {b journal-roundtrip} — every result survives
      encode/decode/re-encode through {!Journal} byte-identically, and
      a warm-started fresh context serves back the identical record (the
      kill/resume path);
    + {b resume-isolation} — the same records, warm-started into a
      context with one input changed (fault plan, chaos spec, cgroup
      spec or audit cadence), are never served: every trial there equals
      a fresh compute under that context.

    A failing configuration is shrunk greedily — drop chaos segments one
    at a time, then the chaos spec, the cgroup spec, the fault plan,
    then default the swap/workload/policy/ratio — re-running the failed
    oracle at each step and keeping any smaller configuration that still
    fails it, to a fixpoint.  The minimal configuration prints as a
    [repro fuzz --config '...'] line that reproduces deterministically. *)

type config = {
  fz_workload : Runner.workload_kind;
  fz_policy : Policy.Registry.spec;
  fz_ratio : float;
  fz_swap : Runner.swap_medium;
  fz_faults : string;  (** fault plan name: none | light | heavy *)
  fz_cgroups : string option;  (** [--cgroups] spec string *)
  fz_chaos : string option;  (** [--chaos] spec string *)
}

val config_to_string : config -> string
(** Space-separated [k=v] encoding ([w= p= r= s= f= cg= ch=]); both
    spec grammars are space-free, so the line splits unambiguously. *)

val config_of_string : string -> (config, string) result

val check : config -> (string * string) option
(** Run every oracle against one configuration; [Some (oracle, detail)]
    for the first failure, [None] if all pass.  Raises [Failure] if the
    configuration's cgroup or chaos spec does not parse. *)

val shrink : config -> failing:string -> config
(** Greedy fixpoint shrink: the smallest derived configuration whose
    first failing oracle is still [failing]. *)

val run : seed:int -> iterations:int -> with_corrupt:bool -> int
(** The soak loop; returns the number of failing iterations.  Each
    failure prints its oracle, detail, and shrunken repro line.
    [with_corrupt] lets the sampler emit test-only [corrupt:] segments,
    which the invariants oracle must catch. *)

val replay : string -> int
(** [replay line] re-checks one encoded configuration (the [--config]
    flag); returns the number of failures (0 or 1).  Prints the verdict. *)
