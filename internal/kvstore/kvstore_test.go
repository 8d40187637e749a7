package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
)

func newPair(t testing.TB) (*Server, *Client) {
	t.Helper()
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return s, c
}

func TestSetGet(t *testing.T) {
	_, c := newPair(t)
	if err := c.Set("k", []byte("v")); err != nil {
		t.Fatalf("Set: %v", err)
	}
	got, err := c.Get("k")
	if err != nil || string(got) != "v" {
		t.Fatalf("Get = %q, %v", got, err)
	}
}

func TestGetMissing(t *testing.T) {
	_, c := newPair(t)
	if _, err := c.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get missing: err = %v, want ErrNotFound", err)
	}
}

func TestBinarySafety(t *testing.T) {
	_, c := newPair(t)
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i) // includes \r, \n, zero bytes
	}
	if err := c.Set("bin", payload); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get("bin")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("binary round trip broken: %v", err)
	}
}

func TestLargeValue(t *testing.T) {
	_, c := newPair(t)
	payload := make([]byte, 8<<20) // 8 MiB intermediate-data blob
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	if err := c.Set("big", payload); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get("big")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("large round trip broken: %v", err)
	}
}

func TestDel(t *testing.T) {
	s, c := newPair(t)
	c.Set("k", []byte("v"))
	ok, err := c.Del("k")
	if err != nil || !ok {
		t.Fatalf("Del = %v, %v", ok, err)
	}
	ok, err = c.Del("k")
	if err != nil || ok {
		t.Fatalf("second Del = %v, %v", ok, err)
	}
	if s.Keys() != 0 {
		t.Fatalf("Keys = %d after delete", s.Keys())
	}
}

func TestOverwrite(t *testing.T) {
	_, c := newPair(t)
	c.Set("k", []byte("first"))
	c.Set("k", []byte("second"))
	got, _ := c.Get("k")
	if string(got) != "second" {
		t.Fatalf("Get after overwrite = %q", got)
	}
}

func TestValueIsolatedFromCallerBuffer(t *testing.T) {
	s, c := newPair(t)
	buf := []byte("immutable?")
	c.Set("k", buf)
	buf[0] = 'X'
	got, _ := c.Get("k")
	if string(got) != "immutable?" {
		t.Fatalf("server aliased the client buffer: %q", got)
	}
	_ = s
}

func TestManyClientsConcurrently(t *testing.T) {
	s, _ := newPair(t)
	const n = 8
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(s.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			key := fmt.Sprintf("key-%d", i)
			want := bytes.Repeat([]byte{byte(i)}, 10_000)
			for j := 0; j < 50; j++ {
				if err := c.Set(key, want); err != nil {
					errs <- err
					return
				}
				got, err := c.Get(key)
				if err != nil || !bytes.Equal(got, want) {
					errs <- fmt.Errorf("client %d corrupt read: %v", i, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestSharedClientConcurrency(t *testing.T) {
	_, c := newPair(t)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("s-%d", i)
			for j := 0; j < 100; j++ {
				if err := c.Set(key, []byte{byte(i)}); err != nil {
					errs <- err
					return
				}
				got, err := c.Get(key)
				if err != nil || got[0] != byte(i) {
					errs <- fmt.Errorf("shared client mixup: %v", err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func BenchmarkKVRoundTrip64K(b *testing.B) {
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	payload := make([]byte, 64*1024)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Set("bench", payload); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Get("bench"); err != nil {
			b.Fatal(err)
		}
	}
}
