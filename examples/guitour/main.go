// guitour runs a debugged job and drives the Graft GUI over it
// programmatically: it starts the HTTP server on a local port, walks
// the node-link / tabular / violations views and the reproduce
// endpoint, and prints what each shows — a headless tour of Figures
// 3-5. Pass -serve to keep the server running for a real browser.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"strings"

	"graft"
	"graft/internal/algorithms"
	"graft/internal/graphgen"
	"graft/internal/gui"
	"graft/internal/trace"
)

func main() {
	serve := flag.Bool("serve", false, "keep serving after the tour (for a real browser)")
	addr := flag.String("addr", "127.0.0.1:0", "listen address")
	flag.Parse()

	// Produce a trace worth looking at: the buggy coloring run.
	fs := graft.NewMemFS()
	store := trace.NewStore(fs, "traces")
	g := graphgen.RegularBipartite(400, 3)
	res, err := graft.RunAlgorithm(g, algorithms.NewBuggyGraphColoring(42), graft.RunOptions{
		JobID: "gc-tour",
		Store: store,
		Debug: &graft.DebugConfig{
			NumRandomCaptures: 8,
			CaptureNeighbors:  true,
			RandomSeed:        3,
			CaptureExceptions: true,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("traced job gc-tour: %d supersteps, %d captures\n", res.Stats.Supersteps, res.Captures)

	// The GUI rebuilds the job's algorithm from its manifest ("gc-buggy",
	// at the default seed 42) for Reproduce Context and the replay check.
	srv := gui.NewServer(store)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	base := "http://" + ln.Addr().String()
	go func() {
		if err := http.Serve(ln, srv.Handler()); err != nil {
			log.Println(err)
		}
	}()
	fmt.Println("GUI listening on", base)

	fetch := func(path string) string {
		resp, err := http.Get(base + path)
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		fmt.Printf("GET %-55s -> %d (%d bytes)\n", path, resp.StatusCode, len(body))
		return string(body)
	}

	fetch("/")
	nodelink := fetch("/job/gc-tour/nodelink?superstep=1")
	fmt.Printf("   node-link view: %d vertex circles drawn\n", strings.Count(nodelink, "<circle"))
	tab := fetch("/job/gc-tour/tabular?superstep=1&value=TENTATIVELY")
	fmt.Printf("   tabular search for TENTATIVELY: %d rows\n", strings.Count(tab, "Reproduce Vertex Context")-0)
	fetch("/job/gc-tour/violations?all=1")
	fetch("/job/gc-tour/master?superstep=1")
	reproCode := fetch("/job/gc-tour/reproduce?superstep=1&id=" + firstCapturedID(store))
	fmt.Printf("   reproduce endpoint returned a %d-line Go test\n", strings.Count(reproCode, "\n"))
	fetch("/api/job/gc-tour/superstep/1")

	if *serve {
		fmt.Println("serving until interrupted; open", base)
		select {}
	}
}

func firstCapturedID(store *trace.Store) string {
	db, err := graft.OpenTrace(store, "gc-tour")
	if err != nil {
		log.Fatal(err)
	}
	ids := db.CapturedVertexIDs()
	if len(ids) == 0 {
		log.Fatal("no captures")
	}
	return fmt.Sprint(int64(ids[0]))
}
