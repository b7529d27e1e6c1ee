package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"dita/internal/cluster"
	"dita/internal/core"
	"dita/internal/dnet"
	"dita/internal/geom"
	"dita/internal/obs"
	"dita/internal/serve"
	"dita/internal/snap"
	"dita/internal/traj"
	"dita/internal/wal"
)

// The three deployment shapes under test, each behind the same door. All of a
// shape runs in this process: workers are real net/rpc servers on loopback
// sockets with snapshot and WAL stores in a directory of the run, dita-serve
// is its real handler on a loopback listener.

type hit struct {
	ID   int
	Dist float64
}

type joinPair struct {
	T, Q int
	Dist float64
}

// door is what a client of any shape can ask. Reads and writes go to the
// "trips" dataset; Join is the self-join of "sub".
type door interface {
	Search(q []geom.Point, tau float64) ([]hit, error)
	KNN(q []geom.Point, k int) ([]hit, error)
	Join(tau float64) ([]joinPair, error)
	Insert(t *traj.T) error
	Delete(id int) (bool, error)
	// Touch makes acked writes to "sub" that leave its visible set as it was.
	Touch() error
}

type shape int

const (
	shapeEngine shape = iota
	shapeCluster
	shapeServe
)

const numWorkers = 3

// stackOpts is the configuration a workload fixes for its stack.
type stackOpts struct {
	shape      shape
	mergeBytes int  // Worker.MergeBytes / IngestConfig.MergeBytes; 0 = the program's default
	traced     bool // attach metric registries (the layer probe reads them)
}

// stack is one running deployment plus the handles the layer probe needs.
type stack struct {
	door
	opts stackOpts
	dir  string
	// touch is written to and deleted from "sub" to bump its write epochs;
	// a stack reopened from disk has none.
	touch *traj.T

	eng, engSub *core.Engine
	workers     []*dnet.Worker
	addrs       []string
	coord       *dnet.Coordinator
	srv, srvSub *serve.Server
	https       []*http.Server
	base        string        // URL of the trips server
	dispatchDur time.Duration // Coordinator.Dispatch of the corpus
	closed      bool

	engReg, coordReg, serveReg *obs.Registry
	workerRegs                 []*obs.Registry
}

func (s *stack) Close() {
	if s.closed {
		return
	}
	s.closed = true
	for _, h := range s.https {
		_ = h.Close()
	}
	if s.coord != nil {
		_ = s.coord.Close()
	}
	for _, w := range s.workers {
		_ = w.Close()
	}
	for _, e := range []*core.Engine{s.eng, s.engSub} {
		if e != nil {
			_ = e.CloseIngest()
		}
	}
}

// buildStack builds a fresh deployment over the two datasets in dir.
func buildStack(o stackOpts, dir string, corpus, sub *traj.Dataset) (*stack, error) {
	s := &stack{opts: o, dir: dir, touch: &traj.T{ID: insertID0 - 1, Points: sub.Trajs[0].Points}}
	var err error
	if o.shape == shapeEngine {
		err = s.buildEngines(corpus, sub)
	} else {
		err = s.startCluster(false)
		if err == nil {
			t0 := time.Now()
			err = s.coord.Dispatch(corpus.Name, corpus)
			s.dispatchDur = time.Since(t0)
		}
		if err == nil {
			err = s.coord.Dispatch(sub.Name, sub)
		}
		if err == nil && o.shape == shapeServe {
			err = s.startServe()
		}
	}
	if err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// reopenStack cold-starts a deployment from nothing but dir.
func reopenStack(o stackOpts, dir string) (*stack, error) {
	s := &stack{opts: o, dir: dir}
	var err error
	if o.shape == shapeEngine {
		err = s.restoreEngines()
	} else {
		err = s.startCluster(true)
		for _, name := range []string{"trips", "sub"} {
			if err == nil {
				_, err = s.coord.RecoverDataset(name)
			}
		}
		if err == nil && o.shape == shapeServe {
			err = s.startServe()
		}
	}
	if err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// --- engine shape ---

func (s *stack) engineOptions() core.Options {
	o := core.DefaultOptions()
	o.VerifyParallelism = 1
	// One virtual worker: partition tasks of a query run one after another,
	// so a request's time is the sum of its layers' times.
	o.Cluster = cluster.New(cluster.DefaultConfig(1))
	if s.opts.traced {
		if s.engReg == nil {
			s.engReg = obs.New()
		}
		o.Obs = s.engReg
	}
	return o
}

func (s *stack) stores() (*snap.Store, *wal.Store, error) {
	ss, err := snap.NewStore(s.dir)
	if err != nil {
		return nil, nil, err
	}
	ws, err := wal.NewStore(s.dir)
	return ss, ws, err
}

func (s *stack) buildEngines(corpus, sub *traj.Dataset) error {
	ss, ws, err := s.stores()
	if err != nil {
		return err
	}
	build := func(d *traj.Dataset) (*core.Engine, error) {
		e, err := core.NewEngine(d, s.engineOptions())
		if err != nil {
			return nil, err
		}
		for _, p := range e.Partitions() {
			if _, err := ss.Save(e.ExportSnapshot(d.Name, p)); err != nil {
				return nil, err
			}
		}
		_, err = e.EnableIngest(core.IngestConfig{WAL: ws, Snap: ss, MergeBytes: s.opts.mergeBytes, AutoMerge: true})
		return e, err
	}
	if s.eng, err = build(corpus); err != nil {
		return err
	}
	if s.engSub, err = build(sub); err != nil {
		return err
	}
	s.door = &engineDoor{s.eng, s.engSub, s.touch}
	return nil
}

func (s *stack) restoreEngines() error {
	ss, ws, err := s.stores()
	if err != nil {
		return err
	}
	entries, err := ss.Scan()
	if err != nil {
		return err
	}
	byName := map[string][]*snap.Snapshot{}
	for _, en := range entries {
		sn, err := snap.LoadFile(en.Path)
		if err != nil {
			return fmt.Errorf("load %s: %w", en.Path, err)
		}
		byName[en.Dataset] = append(byName[en.Dataset], sn)
	}
	restore := func(name string) (*core.Engine, error) {
		snaps := byName[name]
		sort.Slice(snaps, func(i, j int) bool { return snaps[i].Partition < snaps[j].Partition })
		e, err := core.NewEngineFromSnapshots(snaps, s.engineOptions())
		if err != nil {
			return nil, fmt.Errorf("restore %s: %w", name, err)
		}
		_, err = e.EnableIngest(core.IngestConfig{WAL: ws, Snap: ss, MergeBytes: s.opts.mergeBytes, AutoMerge: true, Replay: true})
		return e, err
	}
	if s.eng, err = restore("trips"); err != nil {
		return err
	}
	if s.engSub, err = restore("sub"); err != nil {
		return err
	}
	s.door = &engineDoor{s.eng, s.engSub, s.touch}
	return nil
}

type engineDoor struct {
	e, sub *core.Engine
	touch  *traj.T
}

func fromResults(rs []core.SearchResult) []hit {
	out := make([]hit, len(rs))
	for i, r := range rs {
		out[i] = hit{r.Traj.ID, r.Distance}
	}
	return out
}

func (d *engineDoor) Search(q []geom.Point, tau float64) ([]hit, error) {
	return fromResults(d.e.Search(&traj.T{ID: -1, Points: q}, tau, nil)), nil
}

func (d *engineDoor) KNN(q []geom.Point, k int) ([]hit, error) {
	return fromResults(d.e.SearchKNN(&traj.T{ID: -1, Points: q}, k)), nil
}

func (d *engineDoor) Join(tau float64) ([]joinPair, error) {
	ps := d.sub.Join(d.sub, tau, core.DefaultJoinOptions(), nil)
	out := make([]joinPair, len(ps))
	for i, p := range ps {
		out[i] = joinPair{p.T.ID, p.Q.ID, p.Distance}
	}
	return out, nil
}

func (d *engineDoor) Insert(t *traj.T) error      { return d.e.Insert(t) }
func (d *engineDoor) Delete(id int) (bool, error) { return d.e.Delete(id) }

func (d *engineDoor) Touch() error {
	if err := d.sub.Insert(d.touch); err != nil {
		return err
	}
	_, err := d.sub.Delete(d.touch.ID)
	return err
}

// --- cluster shape ---

func (s *stack) startCluster(fromDisk bool) error {
	for i := 0; i < numWorkers; i++ {
		w := dnet.NewWorker()
		dir := filepath.Join(s.dir, fmt.Sprintf("w%d", i))
		var err error
		if w.SnapStore, err = snap.NewStore(dir); err != nil {
			return err
		}
		if w.WALStore, err = wal.NewStore(dir); err != nil {
			return err
		}
		w.VerifyParallelism = 1
		w.MergeBytes = s.opts.mergeBytes
		if s.opts.traced {
			reg := obs.New()
			w.Instrument(reg)
			s.workerRegs = append(s.workerRegs, reg)
		}
		s.workers = append(s.workers, w)
		if fromDisk {
			rep, err := w.LoadSnapshots()
			if err != nil {
				return fmt.Errorf("worker %d cold start: %w", i, err)
			}
			if len(rep.Skipped) > 0 {
				return fmt.Errorf("worker %d cold start skipped %d files, first: %s", i, len(rep.Skipped), rep.Skipped[0].Err)
			}
		}
		addr, err := w.Serve("127.0.0.1:0")
		if err != nil {
			return err
		}
		s.addrs = append(s.addrs, addr)
	}
	cfg := dnet.DefaultNetConfig()
	cfg.NG = core.DefaultOptions().NG // the engine's grid, so both shapes prune and descend alike
	cfg.Replicas = 2
	if s.opts.traced {
		s.coordReg = obs.New()
		cfg.Obs = s.coordReg
	}
	c, err := dnet.Connect(s.addrs, cfg)
	if err != nil {
		return err
	}
	s.coord = c
	s.door = &coordDoor{c, s.touch}
	return nil
}

type coordDoor struct {
	c     *dnet.Coordinator
	touch *traj.T
}

func fromHits(hs []dnet.SearchHit) []hit {
	out := make([]hit, len(hs))
	for i, h := range hs {
		out[i] = hit{h.ID, h.Distance}
	}
	return out
}

func (d *coordDoor) Search(q []geom.Point, tau float64) ([]hit, error) {
	hs, err := d.c.Search("trips", &traj.T{ID: -1, Points: q}, tau)
	return fromHits(hs), err
}

func (d *coordDoor) KNN(q []geom.Point, k int) ([]hit, error) {
	hs, err := d.c.SearchKNN("trips", &traj.T{ID: -1, Points: q}, k)
	return fromHits(hs), err
}

func (d *coordDoor) Join(tau float64) ([]joinPair, error) {
	ps, err := d.c.Join("sub", "sub", tau)
	out := make([]joinPair, len(ps))
	for i, p := range ps {
		out[i] = joinPair{p.TID, p.QID, p.Distance}
	}
	return out, err
}

func (d *coordDoor) Insert(t *traj.T) error      { return d.c.Ingest("trips", t) }
func (d *coordDoor) Delete(id int) (bool, error) { return d.c.Delete("trips", id) }

func (d *coordDoor) Touch() error {
	if err := d.c.Ingest("sub", d.touch); err != nil {
		return err
	}
	_, err := d.c.Delete("sub", d.touch.ID)
	return err
}

// --- serve shape ---

func (s *stack) startServe() error {
	if s.opts.traced {
		s.serveReg = obs.New()
	}
	start := func(name string, reg *obs.Registry) (*serve.Server, string, error) {
		srv, err := serve.New(serve.Config{
			Backend: &serve.CoordBackend{C: s.coord, Dataset: name},
			Dataset: name, Measure: "DTW", Obs: reg,
		})
		if err != nil {
			return nil, "", err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, "", err
		}
		hs := &http.Server{Handler: srv.Handler()}
		s.https = append(s.https, hs)
		go func() { _ = hs.Serve(ln) }() // ends when Close closes the listener
		return srv, "http://" + ln.Addr().String(), nil
	}
	srv, base, err := start("trips", s.serveReg)
	if err != nil {
		return err
	}
	_, baseSub, err := start("sub", nil)
	if err != nil {
		return err
	}
	s.srv = srv
	s.door = newHTTPDoor(base, baseSub, s.touch)
	return nil
}

type httpDoor struct {
	base, baseSub string
	hc            *http.Client
	touch         *traj.T
}

func newHTTPDoor(base, baseSub string, touch *traj.T) *httpDoor {
	tr := &http.Transport{MaxIdleConns: 16, MaxIdleConnsPerHost: 8, IdleConnTimeout: time.Minute}
	return &httpDoor{base: base, baseSub: baseSub, touch: touch,
		hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

type queryBody struct {
	Query [][2]float64 `json:"query,omitempty"`
	Tau   float64      `json:"tau,omitempty"`
	K     int          `json:"k,omitempty"`
}

type writeBody struct {
	ID     int          `json:"id"`
	Points [][2]float64 `json:"points,omitempty"`
}

type queryReply struct {
	Hits  []serve.Hit      `json:"hits"`
	Pairs []serve.JoinPair `json:"pairs"`
	Count int              `json:"count"`
	Cache string           `json:"cache"`
}

type writeReply struct {
	OK      bool  `json:"ok"`
	Existed *bool `json:"existed"`
}

func rawPoints(ps []geom.Point) [][2]float64 {
	out := make([][2]float64, len(ps))
	for i, p := range ps {
		out[i] = [2]float64{p.X, p.Y}
	}
	return out
}

// post sends one JSON request; any status but 200 (a 429 or 503 refusal
// included) is an error, and so a failed operation.
func (d *httpDoor) post(url string, body, out any) (int, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	resp, err := d.hc.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return len(data), fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(data))
	}
	return len(data), json.Unmarshal(data, out)
}

func fromServeHits(hs []serve.Hit) []hit {
	out := make([]hit, len(hs))
	for i, h := range hs {
		out[i] = hit{h.ID, h.Distance}
	}
	return out
}

func (d *httpDoor) Search(q []geom.Point, tau float64) ([]hit, error) {
	var r queryReply
	_, err := d.post(d.base+"/v1/search", queryBody{Query: rawPoints(q), Tau: tau}, &r)
	return fromServeHits(r.Hits), err
}

func (d *httpDoor) KNN(q []geom.Point, k int) ([]hit, error) {
	var r queryReply
	_, err := d.post(d.base+"/v1/knn", queryBody{Query: rawPoints(q), K: k}, &r)
	return fromServeHits(r.Hits), err
}

func (d *httpDoor) Join(tau float64) ([]joinPair, error) {
	var r queryReply
	_, err := d.post(d.baseSub+"/v1/join", queryBody{Tau: tau}, &r)
	out := make([]joinPair, len(r.Pairs))
	for i, p := range r.Pairs {
		out[i] = joinPair{p.TID, p.QID, p.Distance}
	}
	return out, err
}

func (d *httpDoor) Insert(t *traj.T) error {
	var r writeReply
	_, err := d.post(d.base+"/v1/ingest", writeBody{ID: t.ID, Points: rawPoints(t.Points)}, &r)
	if err == nil && !r.OK {
		err = errors.New("ingest not acked")
	}
	return err
}

func (d *httpDoor) Delete(id int) (bool, error) {
	var r writeReply
	_, err := d.post(d.base+"/v1/delete", writeBody{ID: id}, &r)
	return r.Existed != nil && *r.Existed, err
}

func (d *httpDoor) Touch() error {
	var r writeReply
	if _, err := d.post(d.baseSub+"/v1/ingest", writeBody{ID: d.touch.ID, Points: rawPoints(d.touch.Points)}, &r); err != nil {
		return err
	}
	_, err := d.post(d.baseSub+"/v1/delete", writeBody{ID: d.touch.ID}, &r)
	return err
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return err
	})
	return n, err
}

var bg = context.Background()
