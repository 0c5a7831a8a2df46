(** Ablation studies over the design choices the paper calls out.

    Each study sweeps one mechanism while holding everything else at the
    paper's defaults, on TPC-H and PageRank at SSD/50 % — the regime
    where replacement decisions matter most:

    - [generations]: the generation-window cap (Clock's 2 lists → the
      default 4 → Gen-14's 2¹⁴), §V-B's first knob;
    - [bloom]: the accessed-PTE density a region needs to enter the
      aging Bloom filter (the kernel's "one per cache line");
    - [spatial]: the eviction walker's page-table look-around, the
      mechanism §V-B credits for Scan-None beating Clock;
    - [readahead]: the machine's swap readahead window (not a policy
      knob, but it interacts with every policy's fault counts);
    - [scan-rand]: Scan-Rand's probability, which the paper fixes at
      50 % (§VI-C asks whether other points are better).

    Every study but [readahead] is a {!Figures.builder}, so its cells
    come from the cached runner through {!Figures.cell}; [readahead]
    runs its own machines through the domain pool.  Output does not
    depend on [Runner.jobs]. *)

val names : string list
(** The study names above, in that order. *)

val build : Runner.ctx -> string list -> Report.figure list
(** One figure per named study, in list order, after one prefetch of
    every cached study's grid.
    @raise Invalid_argument on a name outside {!names}, before any
    trial runs. *)

val readahead_config : Runner.ctx -> footprint:int -> window:int -> Machine.config
(** The machine one [readahead] trial runs: {!Runner.machine_config}
    sized at 50 % of [footprint], seed 4242, with only the readahead
    window set to [window]. *)
