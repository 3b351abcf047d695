package server_test

import (
	"io"
	"net"
	"slices"
	"testing"
	"time"

	"adskip"
	"adskip/internal/client"
	"adskip/internal/server"
)

// BenchmarkRoundTrip prices one serial request on one loopback connection,
// rung by rung: echo is a raw 64-byte write and read against a goroutine
// that writes it back (the floor: two loopback wake-ups and nothing else),
// ping adds the frame codec and the session loop, count-hot a cached
// COUNT(*) over 1% of a 2-shard 1 Mi-row table, orderby-hot its ORDER BY
// seq LIMIT 100 twin with 200 cells to encode and decode. Allocations are
// the whole process's — client, server and engine — per request.
//
//	go test -run '^$' -bench RoundTrip -benchtime 20000x ./internal/server
func BenchmarkRoundTrip(b *testing.B) {
	const rows, band = 1 << 20, 4096
	db := adskip.Open(adskip.Options{Policy: adskip.Adaptive, Shards: 2, ShardKey: "v", ShardBy: "range"})
	defer db.Close()
	tbl, err := db.CreateTable("data", adskip.Col("v", adskip.Int64), adskip.Col("seq", adskip.Int64))
	if err != nil {
		b.Fatal(err)
	}
	// Range sharding learns its bounds from the first batch: lead with a
	// strided sample of the whole domain, as the served-zipf workload does.
	batch := make([][]adskip.Value, 0, 1<<16)
	flush := func() {
		if err := tbl.AppendBatch(batch); err != nil {
			b.Fatal(err)
		}
		batch = batch[:0]
	}
	put := func(i int) {
		batch = append(batch, []adskip.Value{adskip.IntValue(int64(i/band*band + i*7%band)), adskip.IntValue(int64(i))})
		if len(batch) == cap(batch) {
			flush()
		}
	}
	for i := 0; i < rows; i += 1024 {
		put(i)
	}
	flush()
	for i := 0; i < rows; i++ {
		if i%1024 != 0 {
			put(i)
		}
	}
	flush()
	if err := tbl.EnableSkipping("v"); err != nil {
		b.Fatal(err)
	}
	srv, err := server.Start(db, server.Options{Addr: "127.0.0.1:0"})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c, err := client.Dial(srv.Addr().String(), client.Options{Timeout: 30 * time.Second})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()

	query := func(sql string) func() error {
		return func() error { _, err := c.Query(sql); return err }
	}
	for _, rung := range []struct {
		name string
		op   func() error
	}{
		{"echo", echoRoundTrip(b)},
		{"ping", c.Ping},
		{"count-hot", query("SELECT COUNT(*) FROM data WHERE v BETWEEN 524288 AND 534773")},
		{"orderby-hot", query("SELECT v, seq FROM data WHERE v BETWEEN 524288 AND 534773 ORDER BY seq LIMIT 100")},
	} {
		b.Run(rung.name, func(b *testing.B) {
			for i := 0; i < 256; i++ { // statement cache, zone splits, buffers
				if err := rung.op(); err != nil {
					b.Fatal(err)
				}
			}
			lat := make([]time.Duration, b.N)
			b.ReportAllocs()
			b.ResetTimer()
			for i := range lat {
				t0 := time.Now()
				if err := rung.op(); err != nil {
					b.Fatal(err)
				}
				lat[i] = time.Since(t0)
			}
			b.StopTimer()
			slices.Sort(lat)
			b.ReportMetric(float64(lat[len(lat)/2].Nanoseconds())/1e3, "p50-µs")
		})
	}
}

// echoRoundTrip returns one 64-byte round trip over a fresh loopback
// connection whose far end copies what it reads back.
func echoRoundTrip(b *testing.B) func() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go func() {
		conn, err := ln.Accept()
		ln.Close()
		if err != nil {
			return
		}
		defer conn.Close()
		io.Copy(conn, conn)
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { conn.Close() })
	msg := make([]byte, 64)
	return func() error {
		if _, err := conn.Write(msg); err != nil {
			return err
		}
		_, err := io.ReadFull(conn, msg)
		return err
	}
}
