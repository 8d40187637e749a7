package xfer

import (
	"errors"

	"alloystack/internal/asstd"
	"alloystack/internal/kvstore"
	"alloystack/internal/metrics"
)

// KVClient is the store surface the kv transport needs; satisfied by
// *kvstore.Client (and by in-memory fakes in tests).
type KVClient interface {
	Set(key string, value []byte) error
	Get(key string) ([]byte, error)
	Del(key string) (bool, error)
}

// KV is the store-mediated transport: payloads round-trip through an
// external key-value store, the "third-party forwarding" path the
// OpenFaaS and Faasm baselines use (Figure 11). Each transfer costs at
// least two payload copies (producer→store, store→consumer) plus the
// network round trips — the overhead reference passing eliminates.
type KV struct {
	env    *asstd.Env // optional: backs Alloc staging only
	client KVClient
	stats  *metrics.TransportStats
}

// NewKV builds the transport. env may be nil when only Send/Recv are
// used (the baselines' case).
func NewKV(client KVClient, env *asstd.Env, stats *metrics.TransportStats) *KV {
	return &KV{env: env, client: client, stats: stats}
}

// Kind names the transport.
func (t *KV) Kind() string { return KindKV }

// Send pushes data to the store under slot (copy one).
func (t *KV) Send(slot string, data []byte) error {
	if err := t.client.Set(slot, data); err != nil {
		return err
	}
	t.stats.CountOp(KindKV, int64(len(data)), 1)
	return nil
}

// Alloc stages production in an AsBuffer; SendBuffer ships it.
func (t *KV) Alloc(slot string, size uint64) (*asstd.Buffer, error) {
	if t.env == nil {
		return nil, ErrNoEnv
	}
	return asstd.NewBuffer(t.env, slot, size)
}

// SendBuffer ships an Alloc-ed buffer through the store and releases
// the staging buffer.
func (t *KV) SendBuffer(b *asstd.Buffer) error {
	if err := t.Send(b.Slot(), b.Bytes()); err != nil {
		return err
	}
	return b.Free()
}

// Recv pulls the payload from the store (copy two) and consumes it.
func (t *KV) Recv(slot string) ([]byte, func() error, error) {
	data, err := t.client.Get(slot)
	if err != nil {
		if errors.Is(err, kvstore.ErrNotFound) {
			return nil, nil, missing(slot)
		}
		return nil, nil, err
	}
	if _, err := t.client.Del(slot); err != nil {
		return nil, nil, err
	}
	t.stats.CountOp(KindKV, int64(len(data)), 1)
	return data, nopRelease, nil
}
