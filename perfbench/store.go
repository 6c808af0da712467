package main

import (
	"sync/atomic"
	"time"

	"repro/internal/jobs"
)

// countingStore is a jobs.Store that forwards to an in-memory store and
// counts the calls the job manager makes, the bytes they move and the time
// they take. The sweep-job workload installs it with repro.WithJobStore.
type countingStore struct {
	next  jobs.Store
	ops   atomic.Int64
	bytes atomic.Int64
	nanos atomic.Int64
}

func newCountingStore() *countingStore { return &countingStore{next: jobs.NewMemStore()} }

// storeStats is a snapshot of a countingStore's counters.
type storeStats struct {
	ops, bytes int64
	busy       time.Duration
}

func (s *countingStore) stats() storeStats {
	return storeStats{ops: s.ops.Load(), bytes: s.bytes.Load(), busy: time.Duration(s.nanos.Load())}
}

func (s *countingStore) count(start time.Time, n int) {
	s.nanos.Add(int64(time.Since(start)))
	s.ops.Add(1)
	s.bytes.Add(int64(n))
}

func (s *countingStore) Put(key string, data []byte) error {
	start := time.Now()
	err := s.next.Put(key, data)
	s.count(start, len(data))
	return err
}

func (s *countingStore) Get(key string) ([]byte, error) {
	start := time.Now()
	data, err := s.next.Get(key)
	s.count(start, len(data))
	return data, err
}

func (s *countingStore) Append(key string, data []byte) error {
	start := time.Now()
	err := s.next.Append(key, data)
	s.count(start, len(data))
	return err
}

func (s *countingStore) List(prefix string) ([]string, error) {
	start := time.Now()
	keys, err := s.next.List(prefix)
	s.count(start, 0)
	return keys, err
}

func (s *countingStore) Delete(key string) error {
	start := time.Now()
	err := s.next.Delete(key)
	s.count(start, 0)
	return err
}
