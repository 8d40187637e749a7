// Package xfer is the unified data plane: every path an intermediate
// payload can take between two workflow functions is an implementation
// of one Transport interface (declared in internal/asstd so the env can
// carry it without an import cycle; re-exported here as xfer.Transport).
//
// Three implementations cover the paper's transfer matrix:
//
//	refpass — AsBuffer reference passing (§5), the AlloyStack default.
//	          Zero payload copies on the Alloc/SendBuffer/Recv path;
//	          freed buffers are recycled through a pooled allocator.
//	file    — LibOS fatfs/ramfs spill, the Figure 14 ref-passing
//	          ablation path (and AWS Step Functions' recommended
//	          pattern): one copy out, one copy back.
//	kv      — kvstore-mediated forwarding, the third-party storage path
//	          the OpenFaaS and Faasm baselines use (Figure 11): at
//	          least two payload copies end to end.
//
// All three charge their traffic to a shared metrics.TransportStats so
// the evaluation harness can print a copies column proving the
// zero-copy path really makes zero copies. The package also holds the
// framed protocol of the gateway→watchdog invoke hop (InvokeConn).
package xfer

import (
	"errors"
	"fmt"

	"alloystack/internal/asstd"
	"alloystack/internal/libos"
	"alloystack/internal/metrics"
)

// Transport is the data plane interface; see asstd.Transport for the
// method contracts.
type Transport = asstd.Transport

// The three transport kinds.
const (
	KindRefpass = "refpass"
	KindFile    = "file"
	KindKV      = "kv"
)

// Kinds lists every transport kind, in preference order.
var Kinds = []string{KindRefpass, KindFile, KindKV}

// Errors returned by the transports.
var (
	ErrUnknownKind   = errors.New("xfer: unknown transport kind")
	ErrNoEnv         = errors.New("xfer: transport requires an Env for buffer staging")
	ErrNoBackend     = errors.New("xfer: transport backend not configured")
	ErrPathCollision = errors.New("xfer: 8.3 spill path collision between distinct slots")
)

// Config carries the shared per-run resources a transport needs. Zero
// fields are filled with private defaults where possible.
type Config struct {
	// Env backs AsBuffer allocation; both kinds New builds require it.
	Env *asstd.Env

	// Pool recycles freed AsBuffers on the refpass path. Share one per
	// run so buffers freed by one stage serve the next; nil disables
	// pooling (and it is force-disabled under IFI).
	Pool *BufPool

	// Paths is the spill-path registry for the file transport. Share
	// one per run so cross-stage collisions are detected.
	Paths *PathRegistry

	// Stats, when set, receives per-kind transfer counters.
	Stats *metrics.TransportStats
}

// New builds the named in-WFD transport from cfg: refpass or file. The
// kv kind needs a store client, which its callers hold and pass to
// NewKV; New answers ErrNoBackend for it.
func New(kind string, cfg Config) (Transport, error) {
	switch kind {
	case KindRefpass, KindFile:
		if cfg.Env == nil {
			return nil, fmt.Errorf("%w (kind %q)", ErrNoEnv, kind)
		}
		if kind == KindFile {
			return NewFile(cfg.Env, cfg.Paths, cfg.Stats), nil
		}
		return NewRefpass(cfg.Env, cfg.Pool, cfg.Stats), nil
	case KindKV:
		return nil, fmt.Errorf("%w (kind %q: build it with NewKV)", ErrNoBackend, kind)
	}
	return nil, fmt.Errorf("%w: %q", ErrUnknownKind, kind)
}

// missing wraps the LibOS slot sentinel so every transport reports an
// absent payload the same way AsBuffer acquisition does.
func missing(slot string) error {
	return fmt.Errorf("%w: %q", libos.ErrSlotMissing, slot)
}

// nopRelease is the release closure for transports whose Recv hands the
// caller an owned copy.
func nopRelease() error { return nil }
