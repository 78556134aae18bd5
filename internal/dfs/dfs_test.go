package dfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

// implementations returns one instance of each FileSystem for
// conformance testing.
func implementations(t *testing.T) map[string]FileSystem {
	t.Helper()
	local, err := NewLocalFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]FileSystem{
		"mem":     NewMemFS(),
		"local":   local,
		"cluster": NewCluster(4, 2, 16), // tiny blocks to force multi-block files
	}
}

func TestFileSystemConformance(t *testing.T) {
	for name, fs := range implementations(t) {
		t.Run(name, func(t *testing.T) {
			// Write, read back.
			data := bytes.Repeat([]byte("hello dfs "), 20) // 200 bytes, >1 block on cluster
			if err := WriteFile(fs, "a/b/file1", data); err != nil {
				t.Fatal(err)
			}
			got, err := ReadFile(fs, "a/b/file1")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("read back %d bytes, want %d", len(got), len(data))
			}

			// Empty file.
			if err := WriteFile(fs, "a/empty", nil); err != nil {
				t.Fatal(err)
			}
			if got, err := ReadFile(fs, "a/empty"); err != nil || len(got) != 0 {
				t.Fatalf("empty file: %v %v", got, err)
			}

			// Overwrite.
			if err := WriteFile(fs, "a/b/file1", []byte("v2")); err != nil {
				t.Fatal(err)
			}
			if got, _ := ReadFile(fs, "a/b/file1"); string(got) != "v2" {
				t.Fatalf("overwrite: got %q", got)
			}

			// List with prefix, sorted.
			if err := WriteFile(fs, "a/b/file2", []byte("x")); err != nil {
				t.Fatal(err)
			}
			names, err := fs.List("a/b/")
			if err != nil {
				t.Fatal(err)
			}
			want := []string{"a/b/file1", "a/b/file2"}
			if len(names) != 2 || names[0] != want[0] || names[1] != want[1] {
				t.Fatalf("List = %v, want %v", names, want)
			}
			if !sort.StringsAreSorted(names) {
				t.Error("List not sorted")
			}
			all, err := fs.List("")
			if err != nil {
				t.Fatal(err)
			}
			if len(all) != 3 {
				t.Fatalf("List(\"\") = %v", all)
			}

			// Open missing.
			if _, err := fs.Open("nope"); !errors.Is(err, ErrNotExist) {
				t.Errorf("Open missing: %v", err)
			}

			// Remove.
			if err := fs.Remove("a/empty"); err != nil {
				t.Fatal(err)
			}
			if _, err := fs.Open("a/empty"); !errors.Is(err, ErrNotExist) {
				t.Error("file still readable after Remove")
			}
			if err := fs.Remove("a/empty"); !errors.Is(err, ErrNotExist) {
				t.Errorf("Remove missing: %v", err)
			}

			// Path validation.
			for _, bad := range []string{"", "/abs", "a/../b", "a//b"} {
				if _, err := fs.Create(bad); err == nil {
					t.Errorf("Create(%q) should fail", bad)
				}
			}
		})
	}
}

func TestVisibilityOnlyAfterClose(t *testing.T) {
	for name, fs := range implementations(t) {
		t.Run(name, func(t *testing.T) {
			w, err := fs.Create("pending")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.Write([]byte("data")); err != nil {
				t.Fatal(err)
			}
			if _, err := fs.Open("pending"); !errors.Is(err, ErrNotExist) {
				t.Error("file visible before Close")
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if got, err := ReadFile(fs, "pending"); err != nil || string(got) != "data" {
				t.Errorf("after Close: %q %v", got, err)
			}
			// Double close is a no-op.
			if err := w.Close(); err != nil {
				t.Errorf("double close: %v", err)
			}
		})
	}
}

func TestConcurrentWriters(t *testing.T) {
	// Graft's workers write per-worker trace files concurrently; each
	// file must come out intact.
	for name, fs := range implementations(t) {
		t.Run(name, func(t *testing.T) {
			const n = 16
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					data := bytes.Repeat([]byte{byte(i)}, 100+i)
					if err := WriteFile(fs, fmt.Sprintf("traces/worker_%02d", i), data); err != nil {
						t.Error(err)
					}
				}(i)
			}
			wg.Wait()
			names, err := fs.List("traces/")
			if err != nil {
				t.Fatal(err)
			}
			if len(names) != n {
				t.Fatalf("got %d files, want %d", len(names), n)
			}
			for i := 0; i < n; i++ {
				got, err := ReadFile(fs, fmt.Sprintf("traces/worker_%02d", i))
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != 100+i || got[0] != byte(i) {
					t.Errorf("worker %d file corrupted", i)
				}
			}
		})
	}
}

func TestMemFSSizes(t *testing.T) {
	fs := NewMemFS()
	if err := WriteFile(fs, "x", make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(fs, "y", make([]byte, 5)); err != nil {
		t.Fatal(err)
	}
	if got := fs.Size("x"); got != 10 {
		t.Errorf("Size(x) = %d", got)
	}
	if got := fs.Size("missing"); got != -1 {
		t.Errorf("Size(missing) = %d", got)
	}
	if got := fs.TotalBytes(); got != 15 {
		t.Errorf("TotalBytes = %d", got)
	}
}

func TestClusterSurvivesSingleNodeFailure(t *testing.T) {
	c := NewCluster(3, 2, 8)
	data := bytes.Repeat([]byte("block!"), 10) // 60 bytes = 8 blocks
	if err := WriteFile(c, "f", data); err != nil {
		t.Fatal(err)
	}
	for kill := 0; kill < 3; kill++ {
		c.Kill(kill)
		got, err := ReadFile(c, "f")
		if err != nil {
			t.Fatalf("read with node %d dead: %v", kill, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("corrupt read with node %d dead", kill)
		}
		c.Revive(kill)
	}
}

func TestClusterDoubleFailureLosesBlocks(t *testing.T) {
	c := NewCluster(3, 2, 8)
	if err := WriteFile(c, "f", bytes.Repeat([]byte("x"), 64)); err != nil {
		t.Fatal(err)
	}
	c.Kill(0)
	c.Kill(1)
	c.Kill(2)
	if _, err := ReadFile(c, "f"); !errors.Is(err, ErrBlockUnavailable) {
		t.Fatalf("expected ErrBlockUnavailable, got %v", err)
	}
}

func TestClusterRereplication(t *testing.T) {
	c := NewCluster(4, 2, 8)
	if err := WriteFile(c, "f", bytes.Repeat([]byte("y"), 80)); err != nil {
		t.Fatal(err)
	}
	if n := c.UnderReplicated(); n != 0 {
		t.Fatalf("under-replicated before failure: %d", n)
	}
	c.Kill(0)
	under := c.UnderReplicated()
	if under == 0 {
		t.Fatal("killing a node should under-replicate some blocks")
	}
	created := c.Rereplicate()
	if created == 0 {
		t.Fatal("re-replication created nothing")
	}
	if n := c.UnderReplicated(); n != 0 {
		t.Fatalf("under-replicated after heal: %d", n)
	}
	// Now the data must survive losing another node too.
	c.Kill(1)
	if _, err := ReadFile(c, "f"); err != nil {
		t.Fatalf("read after heal + second failure: %v", err)
	}
}

func TestClusterWriteWithAllNodesDead(t *testing.T) {
	c := NewCluster(2, 2, 8)
	c.Kill(0)
	c.Kill(1)
	err := WriteFile(c, "f", []byte("data"))
	if !errors.Is(err, ErrNoDataNodes) {
		t.Fatalf("expected ErrNoDataNodes, got %v", err)
	}
}

func TestClusterRemoveFreesBlocks(t *testing.T) {
	c := NewCluster(2, 1, 4)
	if err := WriteFile(c, "f", make([]byte, 40)); err != nil {
		t.Fatal(err)
	}
	blocksBefore := c.Node(0).NumBlocks() + c.Node(1).NumBlocks()
	if blocksBefore == 0 {
		t.Fatal("no blocks stored")
	}
	if err := c.Remove("f"); err != nil {
		t.Fatal(err)
	}
	if got := c.Node(0).NumBlocks() + c.Node(1).NumBlocks(); got != 0 {
		t.Errorf("blocks after remove = %d, want 0", got)
	}
}

func TestClusterOverwriteFreesOldBlocks(t *testing.T) {
	c := NewCluster(2, 1, 4)
	if err := WriteFile(c, "f", make([]byte, 40)); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(c, "f", make([]byte, 4)); err != nil {
		t.Fatal(err)
	}
	if got := c.Node(0).NumBlocks() + c.Node(1).NumBlocks(); got != 1 {
		t.Errorf("blocks after overwrite = %d, want 1", got)
	}

	// Replicated: an overwrite leaves exactly blocks x replication
	// replicas of the new version and none of the old.
	c = NewCluster(3, 2, 16)
	if err := WriteFile(c, "f", make([]byte, 5*16)); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(c, "f", make([]byte, 2*16)); err != nil {
		t.Fatal(err)
	}
	total := 0
	for i := 0; i < c.NumNodes(); i++ {
		total += c.Node(i).NumBlocks()
	}
	if want := 2 * 2; total != want {
		t.Errorf("replicas after overwrite = %d, want %d", total, want)
	}
}

func TestClusterReplicationClamped(t *testing.T) {
	c := NewCluster(2, 5, 8) // replication > nodes
	if err := WriteFile(c, "f", []byte("abc")); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadFile(c, "f"); err != nil || string(got) != "abc" {
		t.Fatalf("%q %v", got, err)
	}
	if n := c.UnderReplicated(); n != 0 {
		t.Errorf("clamped replication still reports %d under-replicated", n)
	}
}

func TestClusterPropertyRoundTrip(t *testing.T) {
	c := NewCluster(3, 2, 16)
	i := 0
	f := func(data []byte) bool {
		i++
		path := fmt.Sprintf("p/%d", i)
		if err := WriteFile(c, path, data); err != nil {
			return false
		}
		got, err := ReadFile(c, path)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestWriterAfterCloseFails(t *testing.T) {
	for name, fs := range map[string]FileSystem{"mem": NewMemFS(), "cluster": NewCluster(2, 1, 8)} {
		t.Run(name, func(t *testing.T) {
			w, err := fs.Create("f")
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := w.Write([]byte("late")); err != io.ErrClosedPipe {
				t.Errorf("write after close: %v", err)
			}
		})
	}
}
