// Constant-memory segmentation of a large on-disk CSV — the Figure 15
// regime. The example writes a synthetic CSV to a temp file (stand-in
// for a table that does not fit in RAM), streams it through ARCS with
// CSVStream (two sequential passes, memory bounded by the BinArray and
// the verification sample), then appends a second batch with Extend to
// show the segmentation tracking a growing table without re-reading the
// original data.
//
//	go run ./examples/bigdata [-n 2000000]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"arcs"
	"arcs/internal/dataset"
	"arcs/internal/synth"
)

func main() {
	n := flag.Int("n", 2_000_000, "tuples in the on-disk batch")
	flag.Parse()

	dir, err := os.MkdirTemp("", "arcs-bigdata")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "batch1.csv")

	fmt.Printf("writing %d tuples to %s ...\n", *n, path)
	writeBatch(path, *n, 1)

	// Stream the file: schema inferred from a bounded prefix, then two
	// sequential passes (fit+sample, bin).
	schema, err := dataset.InferCSVSchema(path, 10_000)
	if err != nil {
		log.Fatal(err)
	}
	stream, err := dataset.OpenCSVStream(path, schema)
	if err != nil {
		log.Fatal(err)
	}
	defer stream.Close()

	start := time.Now()
	sys, err := arcs.New(stream, arcs.Config{
		XAttr: "age", YAttr: "salary",
		CritAttr: "group", CritValue: "A",
		NumBins: 50,
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	fmt.Printf("segmented %d tuples in %s (%.0f tuples/sec), heap in use %.1f MB\n",
		*n, elapsed.Round(time.Millisecond), float64(*n)/elapsed.Seconds(),
		float64(mem.HeapInuse)/(1<<20))
	for _, r := range res.Rules {
		fmt.Printf("  %s\n", r)
	}
	fmt.Printf("  verification: %s\n\n", res.Errors)

	// A second batch arrives: extend the system incrementally.
	path2 := filepath.Join(dir, "batch2.csv")
	writeBatch(path2, *n/4, 2)
	stream2, err := dataset.OpenCSVStream(path2, schema)
	if err != nil {
		log.Fatal(err)
	}
	defer stream2.Close()
	start = time.Now()
	if err := sys.Extend(stream2); err != nil {
		log.Fatal(err)
	}
	res2, err := sys.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("extended by %d tuples in %s; combined N = %d\n",
		*n/4, time.Since(start).Round(time.Millisecond), sys.Counts().N())
	for _, r := range res2.Rules {
		fmt.Printf("  %s\n", r)
	}
	fmt.Printf("  verification: %s\n", res2.Errors)
}

// writeBatch emits Function 2 data as CSV.
func writeBatch(path string, n int, seed int64) {
	st, err := synth.NewStream(synth.Config{
		Function: 2, N: n, Seed: seed,
		Perturbation: 0.05, OutlierFraction: 0.10, FracA: 0.4,
	})
	if err != nil {
		log.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	w := bufio.NewWriterSize(f, 1<<20)
	if err := dataset.WriteCSV(w, st.Source()); err != nil {
		log.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
}
