package resultstore

import (
	"bytes"
	"testing"
)

// BenchmarkLogAppend times Log.Append of one fixed 512-byte line: a single
// write to an O_APPEND file, no sync. Report-only; run with -benchmem.
func BenchmarkLogAppend(b *testing.B) {
	l, err := CreateLog(b.TempDir(), "bench-", ".log")
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	line := bytes.Repeat([]byte{'x'}, 511)
	b.ReportAllocs()
	b.SetBytes(int64(len(line)) + 1)
	for b.Loop() {
		if _, err := l.Append(line); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreRecord times Store.Record of fakeResult(7) under distinct
// digests: its JSON encoding, the segment append and the index insert,
// with segments rotating at the default 8 MiB. Auto-compaction is off; no
// digest repeats, so there would be nothing to compact. The digests are
// made before the timer starts. Report-only; run with -benchmem.
func BenchmarkStoreRecord(b *testing.B) {
	s, err := Open(b.TempDir(), Options{NoAutoCompact: true})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	res := fakeResult(7)
	digests := make([]string, b.N)
	for i := range digests {
		digests[i] = digest(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Record(digests[i], res); err != nil {
			b.Fatal(err)
		}
	}
}
