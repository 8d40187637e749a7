package baselines

import (
	"bytes"
	"errors"
	"time"

	"alloystack/internal/asstd"
	"alloystack/internal/asvm"
	"alloystack/internal/metrics"
	"alloystack/internal/workloads"
)

// runFaasmGuest executes the identical ASVM guest bytecode AlloyStack's
// C/Python tiers run, bound by AlloyStack's own host-import binder, but
// on the Faasm platform model: host calls reach Faasm's two-tier state
// (Platform.Send/Recv with page-fault charges) and its input files, and
// the AOT engine runs with WAVM's efficiency (OverheadFactor 1.0, the
// LLVM code generator of §8.5) for the C tier or the Python tier's
// interpretive factor, scaled like every other modelled cost by the
// run's CostScale.
func (r *Runner) runFaasmGuest(p *Platform) error {
	ctx := p.Ctx()
	prog, args, err := workloads.GuestProgram(ctx.Function, ctx)
	if err != nil {
		return err
	}
	in, out := workloads.GuestEdges(ctx.Function, ctx)

	l := asvm.NewLinker()
	asstd.BindHost(l, faasmHost{p}, in, out)

	factor := 1.0 // WAVM / LLVM codegen
	if r.cfg.Language == "python" {
		factor = workloads.PyTier().OverheadFactor
	}
	inst, err := l.Instantiate(prog, asvm.Config{
		Engine:         asvm.EngineAOT,
		OverheadFactor: 1 + (factor-1)*r.cfg.CostScale,
	})
	if err != nil {
		return err
	}
	defer inst.Release()
	start := time.Now()
	_, err = inst.Call("run", args...)
	p.clock.Add(metrics.StageCompute, time.Since(start))
	return err
}

// errFaasmRefused is what a Faasm guest gets for the host calls that
// need a LibOS: it has no filesystem to write and no AsBuffers, so the
// guest sees -1.
var errFaasmRefused = errors.New("baselines: not available to Faasm guests")

// faasmHost is the guest host imports' substrate on Faasm: staged inputs
// open as read-only in-memory files through the ext4 model, and slots
// go through the platform's two-tier state. Both time themselves.
type faasmHost struct{ p *Platform }

func (h faasmHost) Mount() error { return nil }

func (h faasmHost) Open(path string) (asstd.GuestFile, error) {
	data, err := h.p.ReadInput(path)
	if err != nil {
		return nil, err
	}
	return inputFile{bytes.NewReader(data)}, nil
}

func (h faasmHost) Create(string) (asstd.GuestFile, error) { return nil, errFaasmRefused }

func (h faasmHost) Stdout(b []byte) (int, error) { return h.p.r.cfg.Stdout.Write(b) }

func (h faasmHost) Now() (time.Time, error) { return time.Now(), nil }

func (h faasmHost) RegisterBuffer(string, []byte) error { return errFaasmRefused }

func (h faasmHost) AccessBuffer(string, []byte) (int, error) { return 0, errFaasmRefused }

func (h faasmHost) Send(slot string, data []byte) error { return h.p.Send(slot, data) }

func (h faasmHost) Recv(slot string) ([]byte, func([]byte) (int, error), error) {
	data, _, err := h.p.Recv(slot)
	if err != nil {
		return nil, nil, err
	}
	return data, func(dst []byte) (int, error) { return copy(dst, data), nil }, nil
}

// inputFile is a staged input opened by a guest: readable, seekable,
// never writable.
type inputFile struct{ *bytes.Reader }

func (inputFile) Write([]byte) (int, error) { return 0, errFaasmRefused }

func (f inputFile) Size() (int64, error) { return f.Reader.Size(), nil }

func (inputFile) Close() error { return nil }
