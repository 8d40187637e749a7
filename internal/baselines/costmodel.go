// Package baselines implements executable models of every comparison
// system in the paper's evaluation (§8.1): the single-function runtimes
// (Unikraft, gVisor, Wasmer, Virtines, MicroVM), the Rust-capable
// workflow runtimes (OpenFaaS, OpenFaaS-gVisor, Faastlane and its
// -refer/-IPC/-kata variants) and the WASM workflow runtime (Faasm, C
// and Python).
//
// Per DESIGN.md substitution S3, each baseline's *structure* is real
// code: data transfers run over a real TCP key-value store (OpenFaaS),
// real OS pipes (Faastlane-IPC), direct memory handoff (Faastlane
// reference passing) or a page-fault-charged shared mapping (Faasm).
// Only costs that require hardware virtualisation or kernels we cannot
// run (VM boot, guest-kernel init, ptrace interception) are injected
// from the cost table below, scaled by the experiment's CostScale knob.
//
// The apps are AlloyStack's own, run over each platform: the guest
// topology (workloads.GuestProgram, GuestEdges), the guest host imports
// (asstd.BindHost over faasmHost), the WordCount and ParallelSorting
// bodies (workloads.RunApp over Platform) and their codecs. What stays
// per platform is the cost model and the no-op, pipe and chain bodies:
// AlloyStack's pipe and chain hand AsBuffers on by reference (Alloc,
// SendBuffer, Forward), which no baseline has.
package baselines

import "time"

// CostTable holds the calibrated platform constants. Values marked
// [paper] are stated in the paper (Figures 2 and 10 and §8); values
// marked [est] are documented estimates chosen to reproduce the paper's
// reported ratios.
type CostTable struct {
	// ---- cold-start components (Figures 2 and 10) ----

	// MicroVMBoot is a trimmed-device-model MicroVM boot including the
	// guest Linux kernel. [paper Fig 2: 1186 ms]
	MicroVMBoot time.Duration
	// UnikraftBoot is the Unikraft LibOS boot under Firecracker.
	// [paper Fig 2: 137 ms]
	UnikraftBoot time.Duration
	// VirtinesBoot is the kernel-less KVM start. [paper: 22.8 ms]
	VirtinesBoot time.Duration
	// WasmerProc is a Wasmer process cold start. [paper: 342 ms]
	WasmerProc time.Duration
	// WasmerThread starts a WASM function as a thread in a warm Wasmer
	// process. [paper: 7.6 ms]
	WasmerThread time.Duration
	// FaastlaneThread starts a function thread in a warm Faastlane
	// process — below AlloyStack's 1.3 ms because it skips library
	// loading and stack-split initialisation. [paper: "slightly
	// faster than AS"; est 0.9 ms]
	FaastlaneThread time.Duration
	// FaastlaneProc is a fresh Faastlane process with MPK setup. [est 5 ms]
	FaastlaneProc time.Duration
	// GVisorBoot is a runsc sandbox start: ptrace interception plus Go
	// runtime and OCI overheads. [est 500 ms, consistent with §8.2's
	// qualitative placement]
	GVisorBoot time.Duration
	// ContainerBoot is a plain OpenFaaS container cold start. [est 300 ms]
	ContainerBoot time.Duration
	// FaasmFuncStart instantiates a Faasm WASM function from a
	// snapshot ("Proto-function"). [est 0.5 ms]
	FaasmFuncStart time.Duration
	// PythonInit is the CPython-runtime initialisation paid per Python
	// function instance by Faasm-Py (AlloyStack pays the real
	// runtime-image read instead). [est 3 s per function instance (Faasm modules cannot share an initialised runtime), making Faasm-Py and
	// AS-Py the two slowest starters as in Figure 10]
	PythonInit time.Duration

	// ---- control plane ----

	// GatewayForward is one OpenFaaS gateway hop per function
	// invocation. [est 2 ms]
	GatewayForward time.Duration
	// FaasmControlPlane is Faasm's per-function scheduling cost, the
	// term that grows with FunctionChain length in Figure 13. [est 4 ms]
	FaasmControlPlane time.Duration

	// ---- data plane ----

	// FaasmPageFault is charged per 4 KiB page on Faasm's shared-state
	// mappings (mremap + fault handling, §8.3). [est 0.8 µs/page]
	FaasmPageFault time.Duration
	// FaasmWorkerSlots is the per-worker function capacity; functions
	// placed on different workers exchange state through the
	// distributed store (real TCP here), the "even higher overhead"
	// path of §8.3. [est 4 slots]
	FaasmWorkerSlots int

	// FaastlaneFork is the per-instance subprocess fork Faastlane pays in
	// parallel execution phases (process creation, COW page tables,
	// scheduler placement; §8.1). [est 15 ms]
	FaastlaneFork time.Duration
	// FaastlaneIPCSerBps models serialisation/deserialisation on each
	// side of an IPC transfer (Faastlane marshals intermediate data
	// across the process boundary). [est 1.5 GB/s per side]
	FaastlaneIPCSerBps int64

	// ---- host substrates (Table 4 reference points) ----

	// Ext4ReadBps / Ext4WriteBps model the host filesystem the
	// baselines read inputs from. [paper Table 4: 1351 / 1282 MB/s]
	Ext4ReadBps  int64
	Ext4WriteBps int64

	// ---- compute factors ----

	// GVisorComputeFactor inflates compute time under gVisor (syscall
	// interception + Go runtime). [paper §8.2: >20% overhead; est 1.3]
	GVisorComputeFactor float64
	// KataComputeFactor inflates compute under hardware virtualisation
	// (page-fault handling, §8.6). [est 1.05]
	KataComputeFactor float64
}

// DefaultCosts returns the calibrated table.
func DefaultCosts() CostTable {
	return CostTable{
		MicroVMBoot:         1186 * time.Millisecond,
		UnikraftBoot:        137 * time.Millisecond,
		VirtinesBoot:        22800 * time.Microsecond,
		WasmerProc:          342 * time.Millisecond,
		WasmerThread:        7600 * time.Microsecond,
		FaastlaneThread:     900 * time.Microsecond,
		FaastlaneProc:       5 * time.Millisecond,
		GVisorBoot:          500 * time.Millisecond,
		ContainerBoot:       300 * time.Millisecond,
		FaasmFuncStart:      500 * time.Microsecond,
		PythonInit:          3000 * time.Millisecond,
		GatewayForward:      2 * time.Millisecond,
		FaasmControlPlane:   4 * time.Millisecond,
		FaasmPageFault:      800 * time.Nanosecond,
		FaasmWorkerSlots:    4,
		FaastlaneFork:       15 * time.Millisecond,
		FaastlaneIPCSerBps:  1536 << 20,
		Ext4ReadBps:         1351 << 20,
		Ext4WriteBps:        1282 << 20,
		GVisorComputeFactor: 1.3,
		KataComputeFactor:   1.05,
	}
}

// System identifies a comparison platform.
type System string

// The comparison systems of §8.1.
const (
	SysOpenFaaS           System = "OpenFaaS"
	SysOpenFaaSGVisor     System = "OpenFaaS-gVisor"
	SysFaastlane          System = "Faastlane"
	SysFaastlaneRefer     System = "Faastlane-refer"
	SysFaastlaneIPC       System = "Faastlane-IPC"
	SysFaastlaneKata      System = "Faastlane-kata"
	SysFaastlaneReferKata System = "Faastlane-refer-kata"
	SysFaasm              System = "Faasm"
)

// scaled applies the cost-scale knob to an injected duration.
func scaled(d time.Duration, scale float64) time.Duration {
	if scale <= 0 {
		return 0
	}
	return time.Duration(float64(d) * scale)
}

// charge sleeps for the scaled duration (the injected-cost primitive).
func charge(d time.Duration, scale float64) {
	if s := scaled(d, scale); s > 0 {
		time.Sleep(s)
	}
}

// bwDelay models moving n bytes at bps throughput.
func bwDelay(n int64, bps int64, scale float64) {
	if bps <= 0 || n <= 0 {
		return
	}
	charge(time.Duration(n*int64(time.Second)/bps), scale)
}

// ColdStartOnly reports the modelled cold-start latency of the
// single-function runtimes that only appear in Figures 2 and 10.
// AlloyStack itself is measured, not modelled, so it is absent here.
func ColdStartOnly(costs CostTable) map[string]time.Duration {
	return map[string]time.Duration{
		"MicroVM":     costs.MicroVMBoot,
		"Unikraft":    costs.UnikraftBoot,
		"Virtines":    costs.VirtinesBoot,
		"Wasmer":      costs.WasmerProc,
		"Wasmer-T":    costs.WasmerThread,
		"Faastlane-T": costs.FaastlaneThread,
		"gVisor":      costs.GVisorBoot,
		"Faasm":       costs.FaasmFuncStart + costs.FaasmControlPlane,
		"Faasm-Py":    costs.FaasmFuncStart + costs.FaasmControlPlane + costs.PythonInit,
	}
}
