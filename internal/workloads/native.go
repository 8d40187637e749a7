package workloads

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"alloystack/internal/asstd"
	"alloystack/internal/metrics"
	"alloystack/internal/visor"
)

// RegisterNative installs the native-tier (≈Rust) implementations of all
// benchmark functions into reg.
func RegisterNative(reg *visor.Registry) {
	reg.RegisterNative("noops", noopsFn)
	reg.RegisterNative("httpserver", httpServerFn)
	reg.RegisterNative("pipe-send", pipeSendFn)
	reg.RegisterNative("pipe-recv", pipeRecvFn)
	reg.RegisterNative("chain", chainFn)
	for name, app := range apps {
		reg.RegisterNative(name, func(env *asstd.Env, ctx visor.FuncContext) error {
			return app(envIO{env}, ctx)
		})
	}
}

// timeStage charges fn's duration to a breakdown stage — one
// measurement feeding both the stage clock and the trace's phase spans
// (see asstd.Env.TimeStage).
func timeStage(env *asstd.Env, stage metrics.Stage, fn func() error) error {
	if env.Clock == nil && env.Span == nil {
		return fn()
	}
	return env.TimeStage(stage, fn)
}

// ---- synthetic benchmarks --------------------------------------------------

// noopsFn is the empty function used by the cold-start experiments: it
// returns immediately, so all measured latency is platform overhead.
func noopsFn(env *asstd.Env, ctx visor.FuncContext) error {
	return nil
}

// httpServerFn binds a listener and serves a fixed response for the
// requested number of connections (0 = just become ready and exit, which
// is what the cold-start experiment measures).
func httpServerFn(env *asstd.Env, ctx visor.FuncContext) error {
	port := uint16(ctx.ParamInt("port", 8080))
	requests := int(ctx.ParamInt("requests", 0))
	l, err := asstd.Listen(env, port)
	if err != nil {
		return err
	}
	defer l.Close()
	for i := 0; i < requests; i++ {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		buf := make([]byte, 4096)
		if _, err := conn.Read(buf); err != nil {
			conn.Close()
			return err
		}
		resp := "HTTP/1.1 200 OK\r\nContent-Length: 13\r\nConnection: close\r\n\r\nHello, World!"
		if _, err := conn.Write([]byte(resp)); err != nil {
			conn.Close()
			return err
		}
		conn.Close()
	}
	return nil
}

// pipeSendFn produces `size` bytes of intermediate data for pipe-recv.
// The paper measures transfer latency "from when Function A writes the
// data until Function B reads it" (§8.3), so buffer allocation — which
// may trigger the one-time mm module load — happens before the timed
// window; only the write itself is charged to the transfer stage.
func pipeSendFn(env *asstd.Env, ctx visor.FuncContext) error {
	size := uint64(ctx.ParamInt("size", 4096))
	slot := visor.Slot("pipe-send", 0, "pipe-recv", 0)
	t := tp(env)
	if refPassing(env) {
		b, err := t.Alloc(slot, size)
		if err != nil {
			return err
		}
		return timeStage(env, metrics.StageTransfer, func() error {
			FillPattern(b.Bytes())
			return t.SendBuffer(b)
		})
	}
	data := make([]byte, size)
	return timeStage(env, metrics.StageTransfer, func() error {
		FillPattern(data)
		return t.Send(slot, data)
	})
}

// pipeRecvFn consumes the pipe's intermediate data, verifying every byte
// so lazy paths cannot cheat the measurement.
func pipeRecvFn(env *asstd.Env, ctx visor.FuncContext) error {
	slot := visor.Slot("pipe-send", 0, "pipe-recv", 0)
	return timeStage(env, metrics.StageTransfer, func() error {
		data, done, err := tp(env).Recv(slot)
		if err != nil {
			return err
		}
		defer done()
		return verifyPayload(ctx.Function, data)
	})
}

// pattern is one period of byte(i*131+17), which repeats every 256 bytes.
var pattern = func() (p [256]byte) {
	for i := range p {
		p[i] = byte(i*131 + 17)
	}
	return p
}()

// FillPattern writes byte(i*131+17) to b: one period, then doubling copies.
func FillPattern(b []byte) {
	for n := copy(b, pattern[:]); n < len(b); {
		n += copy(b[n:], b[:n])
	}
}

// CheckPattern reports whether b holds FillPattern's output, reading every
// byte: the first period against the table, then b[256:] against b.
func CheckPattern(b []byte) bool {
	n := min(len(b), len(pattern))
	return bytes.Equal(b[:n], pattern[:n]) && bytes.Equal(b[n:], b[:len(b)-n])
}

// verifyPayload names the receiving function fn when b is corrupted.
func verifyPayload(fn string, b []byte) error {
	if !CheckPattern(b) {
		return fmt.Errorf("workloads: %s received a corrupted payload", fn)
	}
	return nil
}

// ---- FunctionChain -----------------------------------------------------------

// chainFn is one link of FunctionChain: the head produces the payload,
// interior links receive and forward it (by reference when enabled),
// the tail consumes it.
func chainFn(env *asstd.Env, ctx visor.FuncContext) error {
	idx, err := chainIndex(ctx.Function)
	if err != nil {
		return err
	}
	length := int(ctx.ParamInt("length", 2))
	size := uint64(ctx.ParamInt("size", 4096))
	last := idx == length-1

	outSlot := visor.Slot(ctx.Function, 0, "chain-"+strconv.Itoa(idx+1), 0)
	inSlot := visor.Slot("chain-"+strconv.Itoa(idx-1), 0, ctx.Function, 0)

	t := tp(env)
	if idx == 0 {
		return timeStage(env, metrics.StageTransfer, func() error {
			if refPassing(env) {
				b, err := t.Alloc(outSlot, size)
				if err != nil {
					return err
				}
				FillPattern(b.Bytes())
				return t.SendBuffer(b)
			}
			data := make([]byte, size)
			FillPattern(data)
			return t.Send(outSlot, data)
		})
	}

	if refPassing(env) {
		b, err := asstd.FromSlot(env, inSlot)
		if err != nil {
			return err
		}
		// Verify the payload (the per-hop "work" of the benchmark).
		if err := timeStage(env, metrics.StageCompute, func() error {
			return verifyPayload(ctx.Function, b.Bytes())
		}); err != nil {
			return err
		}
		if last {
			return b.Free()
		}
		// Forward by reference: no copy, just a slot re-registration.
		return timeStage(env, metrics.StageTransfer, func() error {
			return b.Forward(outSlot)
		})
	}

	// Copy-mediated fallback (file/kv/net): read back, write forward.
	data, done, err := t.Recv(inSlot)
	if err != nil {
		return err
	}
	defer done()
	if last {
		return verifyPayload(ctx.Function, data)
	}
	return timeStage(env, metrics.StageTransfer, func() error {
		return t.Send(outSlot, data)
	})
}

// chainIndex extracts the position from a "chain-<i>" node name.
func chainIndex(name string) (int, error) {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return 0, fmt.Errorf("workloads: %q is not a chain node", name)
	}
	return strconv.Atoi(name[i+1:])
}

// ---- WordCount and ParallelSorting ------------------------------------------------

// AppIO is the I/O surface the WordCount and ParallelSorting bodies run
// on. AlloyStack's native tier passes the LibOS (envIO); a comparison
// system passes its own platform, so every system runs the same app
// code and differs only underneath.
type AppIO interface {
	// ReadInput reads a staged input file whole.
	ReadInput(path string) ([]byte, error)
	// Send moves data downstream under slot.
	Send(slot string, data []byte) error
	// Recv takes slot's payload; release frees it once read.
	Recv(slot string) (data []byte, release func() error, err error)
	// Compute and Transfer run fn as a compute or transfer window of the
	// stage breakdown.
	Compute(fn func() error) error
	Transfer(fn func() error) error
	Printf(format string, args ...any) error
}

// apps are the WordCount and ParallelSorting bodies by base name.
var apps = map[string]func(AppIO, visor.FuncContext) error{
	"wc-split":  wcSplit,
	"wc-map":    wcMap,
	"wc-reduce": wcReduce,
	"wc-merge":  wcMerge,
	"ps-split":  psSplit,
	"ps-sort":   psSort,
	"ps-merge":  psMerge,
	"ps-final":  psFinal,
}

// RunApp runs the WordCount or ParallelSorting body of ctx's function on
// io.
func RunApp(io AppIO, ctx visor.FuncContext) error {
	app, ok := apps[visor.BaseName(ctx.Function)]
	if !ok {
		return fmt.Errorf("workloads: no app body for %q", ctx.Function)
	}
	return app(io, ctx)
}

// envIO is the LibOS side of AppIO: inputs come through the filesystem
// module, intermediate data through the instance's transport, and each
// window is one timeStage.
type envIO struct{ env *asstd.Env }

func (e envIO) ReadInput(path string) ([]byte, error) {
	var data []byte
	err := timeStage(e.env, metrics.StageReadInput, func() error {
		if err := asstd.MountFS(e.env); err != nil {
			return err
		}
		var err error
		data, err = asstd.ReadFile(e.env, path)
		return err
	})
	return data, err
}

func (e envIO) Send(slot string, data []byte) error { return tp(e.env).Send(slot, data) }

func (e envIO) Recv(slot string) ([]byte, func() error, error) { return tp(e.env).Recv(slot) }

func (e envIO) Compute(fn func() error) error {
	return timeStage(e.env, metrics.StageCompute, fn)
}

func (e envIO) Transfer(fn func() error) error {
	return timeStage(e.env, metrics.StageTransfer, fn)
}

func (e envIO) Printf(format string, args ...any) error {
	return asstd.Printf(e.env, format, args...)
}

// wcSplit reads the input text and cuts it into per-mapper chunks.
func wcSplit(io AppIO, ctx visor.FuncContext) error {
	text, err := io.ReadInput(ctx.Param("input", TextInputPath))
	if err != nil {
		return err
	}
	chunks := SplitTextChunks(text, int(ctx.ParamInt("instances", 1)))
	return io.Transfer(func() error {
		for i, chunk := range chunks {
			if err := io.Send(visor.Slot("wc-split", 0, "wc-map", i), chunk); err != nil {
				return err
			}
		}
		return nil
	})
}

// wcMap counts words in its chunk and shuffles the counts to reducers
// partitioned by word hash.
func wcMap(io AppIO, ctx visor.FuncContext) error {
	chunk, release, err := io.Recv(visor.Slot("wc-split", 0, "wc-map", ctx.Instance))
	if err != nil {
		return err
	}
	var partitions []map[string]uint64
	if err := io.Compute(func() error {
		counts := CountWords(chunk)
		partitions = make([]map[string]uint64, ctx.Instances)
		for i := range partitions {
			partitions[i] = make(map[string]uint64)
		}
		for w, c := range counts {
			partitions[WordShard(w, ctx.Instances)][w] += c
		}
		return nil
	}); err != nil {
		return err
	}
	release()
	return io.Transfer(func() error {
		for r, part := range partitions {
			slot := visor.Slot("wc-map", ctx.Instance, "wc-reduce", r)
			if err := io.Send(slot, EncodeCounts(part)); err != nil {
				return err
			}
		}
		return nil
	})
}

// wcReduce merges its hash partition from every mapper.
func wcReduce(io AppIO, ctx visor.FuncContext) error {
	merged := make(map[string]uint64)
	mappers := ctx.Instances // map and reduce run with equal instance counts
	for m := 0; m < mappers; m++ {
		data, release, err := io.Recv(visor.Slot("wc-map", m, "wc-reduce", ctx.Instance))
		if err != nil {
			return err
		}
		err = io.Compute(func() error {
			return DecodeCountsInto(merged, data)
		})
		release()
		if err != nil {
			return err
		}
	}
	return io.Transfer(func() error {
		slot := visor.Slot("wc-reduce", ctx.Instance, "wc-merge", 0)
		return io.Send(slot, EncodeCounts(merged))
	})
}

// wcMerge folds every reducer's table into the final result.
func wcMerge(io AppIO, ctx visor.FuncContext) error {
	reducers := int(ctx.ParamInt("instances", 1))
	final := make(map[string]uint64)
	for r := 0; r < reducers; r++ {
		data, release, err := io.Recv(visor.Slot("wc-reduce", r, "wc-merge", 0))
		if err != nil {
			return err
		}
		err = DecodeCountsInto(final, data)
		release()
		if err != nil {
			return err
		}
	}
	var total uint64
	for _, c := range final {
		total += c
	}
	return io.Printf("words=%d distinct=%d\n", total, len(final))
}

// psSplit reads the input values, samples pivots and scatters
// pivot-headed chunks to the sorters.
func psSplit(io AppIO, ctx visor.FuncContext) error {
	raw, err := io.ReadInput(ctx.Param("input", BinInputPath))
	if err != nil {
		return err
	}
	sorters := int(ctx.ParamInt("instances", 1))
	var pivots []uint64
	if err := io.Compute(func() error {
		pivots = PickPivots(BytesToU64s(raw), sorters)
		return nil
	}); err != nil {
		return err
	}
	return io.Transfer(func() error {
		per := (len(raw) / 8 / sorters) * 8
		for i := 0; i < sorters; i++ {
			start := i * per
			end := start + per
			if i == sorters-1 {
				end = len(raw)
			}
			payload := EncodePivotChunk(pivots, raw[start:end])
			if err := io.Send(visor.Slot("ps-split", 0, "ps-sort", i), payload); err != nil {
				return err
			}
		}
		return nil
	})
}

// psSort sorts its chunk and scatters pivot ranges to the mergers.
func psSort(io AppIO, ctx visor.FuncContext) error {
	data, release, err := io.Recv(visor.Slot("ps-split", 0, "ps-sort", ctx.Instance))
	if err != nil {
		return err
	}
	var pivots, vals []uint64
	err = io.Compute(func() error {
		var chunk []byte
		var err error
		pivots, chunk, err = DecodePivotChunk(data)
		if err != nil {
			return err
		}
		vals = BytesToU64s(chunk)
		slices.Sort(vals)
		return nil
	})
	release()
	if err != nil {
		return err
	}
	return io.Transfer(func() error {
		mergers := len(pivots) + 1
		start := 0
		for j := 0; j < mergers; j++ {
			end := len(vals)
			if j < len(pivots) {
				end = sort.Search(len(vals), func(k int) bool { return vals[k] >= pivots[j] })
			}
			if end < start {
				end = start
			}
			slot := visor.Slot("ps-sort", ctx.Instance, "ps-merge", j)
			if err := io.Send(slot, U64sToBytes(vals[start:end])); err != nil {
				return err
			}
			start = end
		}
		return nil
	})
}

// psMerge k-way merges its range from every sorter.
func psMerge(io AppIO, ctx visor.FuncContext) error {
	sorters := ctx.Instances
	runs := make([][]uint64, 0, sorters)
	for i := 0; i < sorters; i++ {
		data, release, err := io.Recv(visor.Slot("ps-sort", i, "ps-merge", ctx.Instance))
		if err != nil {
			return err
		}
		runs = append(runs, BytesToU64s(data))
		release()
	}
	var merged []uint64
	if err := io.Compute(func() error {
		merged = MergeSortedRuns(runs)
		return nil
	}); err != nil {
		return err
	}
	return io.Transfer(func() error {
		slot := visor.Slot("ps-merge", ctx.Instance, "ps-final", 0)
		return io.Send(slot, U64sToBytes(merged))
	})
}

// psFinal concatenates the ranges in order and verifies global
// sortedness.
func psFinal(io AppIO, ctx visor.FuncContext) error {
	mergers := int(ctx.ParamInt("instances", 1))
	var prev uint64
	var total int
	for j := 0; j < mergers; j++ {
		data, release, err := io.Recv(visor.Slot("ps-merge", j, "ps-final", 0))
		if err != nil {
			return err
		}
		vals := BytesToU64s(data)
		release()
		for _, v := range vals {
			if v < prev {
				return fmt.Errorf("workloads: output not sorted at range %d", j)
			}
			prev = v
		}
		total += len(vals)
	}
	return io.Printf("sorted=%d\n", total)
}
