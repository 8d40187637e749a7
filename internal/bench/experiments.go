package bench

// Experiment is one entry of the evaluation: the ID `asbench -exp`
// takes, a one-line description, the function that runs it, and whether
// it belongs to the cheap subset CI runs for its artifacts.
type Experiment struct {
	ID    string
	About string
	Fn    func(Options) (*Result, error)
	Cheap bool
}

// Experiments is every experiment, in the order `asbench -exp all` runs
// them (cheap ones first). cmd/asbench, the root bench_test.go and this
// package's tests all range over it; adding an experiment is one line
// here plus its counts in testdata/counts.golden.
var Experiments = []Experiment{
	{"table1", "as-libos modules per serverless function", Table1, true},
	{"fig2", "startup latency across software stacks", Fig2, true},
	{"fig10", "cold start latency", Fig10, true},
	{"engines", "guest engine ablation (Wasmtime vs WAVM model)", Engines, false},
	{"recovery", "fault recovery latency (injected panic + retry)", Recovery, true},
	{"coldstart", "cold boot vs warm-pool snapshot fork (p50/p99)", Coldstart, true},
	{"crashresume", "durable-run journal: crash-resume vs cold re-run, journal overhead", CrashResume, true},
	{"obs", "always-on telemetry overhead: histograms + tail-sampled tracing on vs off", Observability, true},
	{"cluster", "cluster plane: rendezvous routing, warm placement and shard budgets at 1/2/4 visors", Cluster, true},
	{"table4", "LibOS substrate throughput vs host kernel", Table4, false},
	{"fig3", "communication primitive latency", Fig3, false},
	{"fig11", "intermediate data transfer latency", Fig11, false},
	{"fig14", "on-demand loading + reference passing ablation", Fig14, false},
	{"fig16", "end-to-end latency on ramfs", Fig16, false},
	{"fig15", "per-stage latency breakdown", Fig15, false},
	{"fig12", "Rust-tier end-to-end latency", Fig12, false},
	{"fig13", "C/Python end-to-end latency vs Faasm", Fig13, false},
	{"fig17a", "tail latency under load", Fig17a, false},
	{"fig17b", "CPU and memory usage vs instances", Fig17b, false},
}
