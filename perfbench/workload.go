package main

import (
	"bytes"
	"fmt"
	"strconv"

	"encompass"
)

// workload is one benchmark configuration. Every simulated sleep
// (AuditForceDelay, MonitorForceDelay, NetLatency, MissPenalty) is left at
// zero, so every number the benchmark reports is host CPU.
type workload struct {
	name string
	// Cluster shape.
	nodes, cpus, vols, cache int
	// TP1 schema, per node: branches, tellers per branch, accounts per
	// branch; abortFrac of transactions end in ABORT-TRANSACTION.
	branches, tellers, accounts int
	abortFrac                   float64
	// browse-mix: records in the one file, and records per range scan.
	browse   bool
	records  int
	rangeLen int
	// setups is how many times a run builds and seeds the cluster;
	// setup_s is the median. All but the last build run in child
	// processes, so the measured cluster shares its heap with no other.
	setups int
	// windowOps is the work in one closed window: about one second of
	// closed-loop throughput when the benchmark was defined (2-CPU x86-64
	// host). pacedRate is the paced windows' fixed offered load in op/s,
	// about a quarter of that throughput. Neither is derived from a run.
	windowOps int
	pacedRate float64
}

var workloads = []*workload{
	{name: "tp1-local", nodes: 1, cpus: 4, vols: 4, cache: 4096,
		branches: 64, tellers: 10, accounts: 1000, abortFrac: 0.02, setups: 3, windowOps: 4400, pacedRate: 1100},
	{name: "tp1-dist", nodes: 3, cpus: 4, vols: 2, cache: 4096,
		branches: 8, tellers: 10, accounts: 200, setups: 7, windowOps: 1400, pacedRate: 350},
	{name: "browse-mix", nodes: 1, cpus: 4, vols: 2, cache: 4096,
		browse: true, records: 2048, rangeLen: 16, setups: 9, windowOps: 48000, pacedRate: 12000},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// cluster is a built and seeded workload.
type cluster struct {
	w     *workload
	sys   *encompass.System
	nodes []*encompass.Node

	// TP1 keys by global branch index, precomputed so terminals spend
	// their CPU in the system under test, not in formatting.
	brKeys   []string
	tellKeys [][]string
	acctKeys [][]string
	histFile []string // per global branch: the history file on its volume

	// browse-mix keys.
	itemKeys []string

	// matBase is each node's Monitor Audit Trail count of home commits
	// after seeding.
	matBase []int
}

const (
	acctFile = "acct"
	tellFile = "tell"
	brchFile = "brch"
	itemFile = "items"
)

func volName(node, vol int) string { return fmt.Sprintf("n%dv%d", node, vol) }

// build assembles the cluster through the public encompass API and seeds
// its data.
func build(w *workload) (*cluster, error) {
	cfg := encompass.Config{}
	for n := 0; n < w.nodes; n++ {
		spec := encompass.NodeSpec{Name: fmt.Sprintf("n%d", n), CPUs: w.cpus}
		for v := 0; v < w.vols; v++ {
			spec.Volumes = append(spec.Volumes, encompass.VolumeSpec{
				Name: volName(n, v), Audited: true, CacheSize: w.cache,
			})
		}
		cfg.Nodes = append(cfg.Nodes, spec)
	}
	sys, err := encompass.Build(cfg)
	if err != nil {
		return nil, err
	}
	c := &cluster{w: w, sys: sys, nodes: sys.Nodes()}
	if w.browse {
		err = c.seedItems()
	} else {
		err = c.seedBank()
	}
	if err != nil {
		return nil, err
	}
	for _, n := range c.nodes {
		c.matBase = append(c.matBase, homeCommits(n))
	}
	return c, nil
}

// homeCommits counts the commit records in n's Monitor Audit Trail for
// transactions homed on n; a participant node records its remote
// transactions' outcomes too.
func homeCommits(n *encompass.Node) int {
	k := 0
	for _, id := range n.TMF.MonitorTrail().Committed() {
		if id.Home == n.Name {
			k++
		}
	}
	return k
}

// record renders a balance record that names its own key.
func record(key string, n int64) []byte {
	b := make([]byte, 0, len(key)+12)
	b = append(b, key...)
	b = append(b, '=')
	return strconv.AppendInt(b, n, 10)
}

// parseRecord checks that val names key and returns its number.
func parseRecord(key string, val []byte) (int64, error) {
	i := bytes.LastIndexByte(val, '=')
	if i < 0 || string(val[:i]) != key {
		return 0, fmt.Errorf("record %q read under key %q", val, key)
	}
	n, err := strconv.ParseInt(string(val[i+1:]), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("record %q under key %q: %v", val, key, err)
	}
	return n, nil
}

const acctInit = 1000

func (c *cluster) seedBank() error {
	w := c.w
	nb := w.nodes * w.branches
	perVol := w.branches / w.vols
	var parts [][3]string
	for g := 0; g < nb; g++ {
		c.brKeys = append(c.brKeys, fmt.Sprintf("b%03d", g))
		var tk, ak []string
		for t := 0; t < w.tellers; t++ {
			tk = append(tk, fmt.Sprintf("b%03d-t%02d", g, t))
		}
		for a := 0; a < w.accounts; a++ {
			ak = append(ak, fmt.Sprintf("b%03d-a%04d", g, a))
		}
		c.tellKeys = append(c.tellKeys, tk)
		c.acctKeys = append(c.acctKeys, ak)
		n, v := g/w.branches, (g%w.branches)/perVol
		c.histFile = append(c.histFile, "hist."+volName(n, v))
		if g%perVol == 0 {
			lo := c.brKeys[g]
			if g == 0 {
				lo = ""
			}
			parts = append(parts, [3]string{lo, fmt.Sprintf("n%d", n), volName(n, v)})
		}
	}
	for _, f := range []string{acctFile, tellFile, brchFile} {
		if err := c.sys.CreateFileEverywhere(encompass.PartitionedFile(f, encompass.KeySequenced, parts)); err != nil {
			return fmt.Errorf("create %s: %w", f, err)
		}
	}
	for n := 0; n < w.nodes; n++ {
		for v := 0; v < w.vols; v++ {
			fi := encompass.LocalFile("hist."+volName(n, v), encompass.EntrySequenced, fmt.Sprintf("n%d", n), volName(n, v))
			if err := c.sys.CreateFileEverywhere(fi); err != nil {
				return fmt.Errorf("create history: %w", err)
			}
		}
	}
	// One transaction per branch, begun on the branch's node.
	for g := 0; g < nb; g++ {
		tx, err := c.nodes[g/w.branches].Begin()
		if err != nil {
			return err
		}
		if err := tx.Insert(brchFile, c.brKeys[g], record(c.brKeys[g], 0)); err != nil {
			return err
		}
		for _, k := range c.tellKeys[g] {
			if err := tx.Insert(tellFile, k, record(k, 0)); err != nil {
				return err
			}
		}
		for _, k := range c.acctKeys[g] {
			if err := tx.Insert(acctFile, k, record(k, acctInit)); err != nil {
				return err
			}
		}
		if err := tx.Commit(); err != nil {
			return err
		}
	}
	return nil
}

// itemPad fills browse records to a realistic size.
const itemPad = ";................................................"

func (c *cluster) seedItems() error {
	w := c.w
	for i := 0; i < w.records; i++ {
		c.itemKeys = append(c.itemKeys, fmt.Sprintf("k%05d", i))
	}
	var parts [][3]string
	for v := 0; v < w.vols; v++ {
		lo := ""
		if v > 0 {
			lo = c.itemKeys[v*w.records/w.vols]
		}
		parts = append(parts, [3]string{lo, "n0", volName(0, v)})
	}
	if err := c.sys.CreateFileEverywhere(encompass.PartitionedFile(itemFile, encompass.KeySequenced, parts)); err != nil {
		return fmt.Errorf("create %s: %w", itemFile, err)
	}
	const batch = 256
	for lo := 0; lo < w.records; lo += batch {
		tx, err := c.nodes[0].Begin()
		if err != nil {
			return err
		}
		for i := lo; i < lo+batch && i < w.records; i++ {
			if err := tx.Insert(itemFile, c.itemKeys[i], item(c.itemKeys[i], 0)); err != nil {
				return err
			}
		}
		if err := tx.Commit(); err != nil {
			return err
		}
	}
	return nil
}

// item renders a browse record: key, version, padding.
func item(key string, version int64) []byte {
	b := record(key, version)
	return append(b, itemPad...)
}

func parseItem(key string, val []byte) (int64, error) {
	if i := bytes.IndexByte(val, ';'); i >= 0 {
		val = val[:i]
	}
	return parseRecord(key, val)
}

// outcome of one op.
type outcome int

const (
	done    outcome = iota // committed, or a browse read that checked out
	aborted                // voluntary ABORT-TRANSACTION, as generated
	failed                 // an error the workload did not ask for
)

// exec runs one op on terminal t.
func (c *cluster) exec(t *terminal, o op) (outcome, error) {
	switch o.kind {
	case opTP1:
		return c.tp1(t, o)
	case opRead:
		return c.read(t, o)
	case opRange:
		return c.scan(t, o)
	case opUpdate:
		return c.update(t, o)
	}
	return failed, fmt.Errorf("unknown op kind %d", o.kind)
}

// addTo read-locks a balance record, checks it names its key, and
// writes it back with delta added.
func (t *terminal) addTo(tx *encompass.Tx, file, key string, delta int64) error {
	s := t.mark()
	val, err := tx.ReadLock(file, key)
	t.span(spReadLock, s)
	if err != nil {
		return err
	}
	n, err := parseRecord(key, val)
	if err != nil {
		t.problem(err.Error())
		return err
	}
	nv := record(key, n+delta)
	s = t.mark()
	err = tx.Update(file, key, nv)
	t.span(spUpdate, s)
	t.userBytes += int64(len(nv))
	return err
}

func (c *cluster) begin(t *terminal, home int32) (*encompass.Tx, error) {
	s := t.mark()
	tx, err := c.nodes[home].Begin()
	t.span(spBegin, s)
	if err == nil {
		t.setTx(tx)
	}
	return tx, err
}

func (t *terminal) abort(tx *encompass.Tx, reason string) error {
	s := t.mark()
	err := tx.Abort(reason)
	t.span(spAbort, s)
	return err
}

// commit ends tx and reports whether it committed. A Commit error whose
// transaction the Monitor Audit Trail nevertheless records as committed
// still counts as committed for the correctness gate.
func (c *cluster) commit(t *terminal, home int32, tx *encompass.Tx) (bool, error) {
	s := t.mark()
	err := tx.Commit()
	t.span(spCommit, s)
	if err == nil {
		return true, nil
	}
	o, ok := c.nodes[home].TMF.MonitorTrail().OutcomeOf(tx.ID)
	return ok && o.String() == "committed", err
}

func (c *cluster) tp1(t *terminal, o op) (outcome, error) {
	tx, err := c.begin(t, o.home)
	if err != nil {
		return failed, err
	}
	d := int64(o.amount)
	fail := func(err error) (outcome, error) {
		_ = t.abort(tx, err.Error()) // the op already failed; the backout's own error adds nothing
		return failed, err
	}
	if err := t.addTo(tx, acctFile, c.acctKeys[o.abr][o.acct], d); err != nil {
		return fail(err)
	}
	if err := t.addTo(tx, tellFile, c.tellKeys[o.branch][o.teller], d); err != nil {
		return fail(err)
	}
	if err := t.addTo(tx, brchFile, c.brKeys[o.branch], d); err != nil {
		return fail(err)
	}
	h := strconv.AppendInt([]byte(c.acctKeys[o.abr][o.acct]+" "+c.tellKeys[o.branch][o.teller]+" "), d, 10)
	s := t.mark()
	_, err = tx.Append(c.histFile[o.branch], h)
	t.span(spAppend, s)
	t.userBytes += int64(len(h))
	if err != nil {
		return fail(err)
	}
	if o.abort {
		if err := t.abort(tx, "voluntary"); err != nil {
			return failed, err
		}
		return aborted, nil
	}
	ok, err := c.commit(t, o.home, tx)
	if ok {
		t.exp.acct[o.abr*int32(c.w.accounts)+o.acct] += d
		t.exp.tell[o.branch*int32(c.w.tellers)+o.teller] += d
		t.exp.brch[o.branch] += d
		t.exp.hist[c.histFile[o.branch]]++
		t.exp.commits[o.home]++
		t.exp.amount += d
	}
	if err != nil {
		return failed, err
	}
	return done, nil
}

func (c *cluster) read(t *terminal, o op) (outcome, error) {
	key := c.itemKeys[o.acct]
	s := t.mark()
	val, err := c.nodes[0].FS.Read(itemFile, key)
	t.span(spRead, s)
	if err != nil {
		return failed, err
	}
	if _, err := parseItem(key, val); err != nil {
		t.problem(err.Error())
	}
	return done, nil
}

func (c *cluster) scan(t *terminal, o op) (outcome, error) {
	s := t.mark()
	recs, err := c.nodes[0].FS.ReadRange(itemFile, c.itemKeys[o.acct], "", c.w.rangeLen)
	t.span(spRange, s)
	if err != nil {
		return failed, err
	}
	want := min(c.w.rangeLen, c.w.records-int(o.acct))
	if len(recs) != want {
		t.problem(fmt.Sprintf("range from %s returned %d records, want %d", c.itemKeys[o.acct], len(recs), want))
	}
	for i, r := range recs {
		key := c.itemKeys[int(o.acct)+i]
		if r.Key != key {
			t.problem(fmt.Sprintf("range from %s: record %d has key %s, want %s", c.itemKeys[o.acct], i, r.Key, key))
			break
		}
		if _, err := parseItem(key, r.Val); err != nil {
			t.problem(err.Error())
			break
		}
	}
	return done, nil
}

func (c *cluster) update(t *terminal, o op) (outcome, error) {
	tx, err := c.begin(t, 0)
	if err != nil {
		return failed, err
	}
	key := c.itemKeys[o.acct]
	fail := func(err error) (outcome, error) {
		_ = t.abort(tx, err.Error()) // the op already failed; the backout's own error adds nothing
		return failed, err
	}
	s := t.mark()
	val, err := tx.ReadLock(itemFile, key)
	t.span(spReadLock, s)
	if err != nil {
		return fail(err)
	}
	v, err := parseItem(key, val)
	if err != nil {
		t.problem(err.Error())
		return fail(err)
	}
	nv := item(key, v+1)
	s = t.mark()
	err = tx.Update(itemFile, key, nv)
	t.span(spUpdate, s)
	t.userBytes += int64(len(nv))
	if err != nil {
		return fail(err)
	}
	ok, err := c.commit(t, 0, tx)
	if ok {
		t.exp.acct[o.acct]++
		t.exp.commits[0]++
	}
	if err != nil {
		return failed, err
	}
	return done, nil
}

// expect is the state a terminal's committed ops imply.
type expect struct {
	acct, tell, brch []int64 // TP1 deltas; browse: acct holds versions
	hist             map[string]int
	commits          []int // per home node
	amount           int64
}

func (c *cluster) newExpect() expect {
	w := c.w
	nb := w.nodes * w.branches
	e := expect{hist: map[string]int{}, commits: make([]int, w.nodes)}
	if w.browse {
		e.acct = make([]int64, w.records)
	} else {
		e.acct = make([]int64, nb*w.accounts)
		e.tell = make([]int64, nb*w.tellers)
		e.brch = make([]int64, nb)
	}
	return e
}

func (e *expect) merge(o expect) {
	for i, v := range o.acct {
		e.acct[i] += v
	}
	for i, v := range o.tell {
		e.tell[i] += v
	}
	for i, v := range o.brch {
		e.brch[i] += v
	}
	for k, v := range o.hist {
		e.hist[k] += v
	}
	for i, v := range o.commits {
		e.commits[i] += v
	}
	e.amount += o.amount
}

// verify is the correctness gate: it reads the whole database back through
// the public file system and checks it against the committed ops.
func (c *cluster) verify(e expect) []string {
	var probs []string
	bad := func(format string, a ...any) {
		if len(probs) < 20 {
			probs = append(probs, fmt.Sprintf(format, a...))
		}
	}
	fs := c.nodes[0].FS
	scanAll := func(file string) ([]encompass.Rec, bool) {
		recs, err := fs.ReadRange(file, "", "", 0)
		if err != nil {
			bad("scan %s: %v", file, err)
			return nil, false
		}
		return recs, true
	}
	// checkBalances compares every record of file with init plus its
	// expected delta and returns the balances.
	checkBalances := func(file string, keys []string, init int64, delta []int64, parse func(string, []byte) (int64, error)) []int64 {
		recs, ok := scanAll(file)
		if !ok {
			return nil
		}
		if len(recs) != len(keys) {
			bad("%s holds %d records, want %d", file, len(recs), len(keys))
			return nil
		}
		out := make([]int64, len(recs))
		for i, r := range recs {
			if r.Key != keys[i] {
				bad("%s record %d has key %s, want %s", file, i, r.Key, keys[i])
				return nil
			}
			n, err := parse(r.Key, r.Val)
			if err != nil {
				bad("%s: %v", file, err)
				continue
			}
			if want := init + delta[i]; n != want {
				bad("%s %s = %d, want %d from committed ops (lost commit or visible abort)", file, r.Key, n, want)
			}
			out[i] = n
		}
		return out
	}

	if c.w.browse {
		checkBalances(itemFile, c.itemKeys, 0, e.acct, parseItem)
	} else {
		flat := func(k [][]string) []string {
			var out []string
			for _, ks := range k {
				out = append(out, ks...)
			}
			return out
		}
		checkBalances(acctFile, flat(c.acctKeys), acctInit, e.acct, parseRecord)
		tell := checkBalances(tellFile, flat(c.tellKeys), 0, e.tell, parseRecord)
		brch := checkBalances(brchFile, c.brKeys, 0, e.brch, parseRecord)
		if tell != nil && brch != nil {
			var total int64
			for g, b := range brch {
				var sum int64
				for _, v := range tell[g*c.w.tellers : (g+1)*c.w.tellers] {
					sum += v
				}
				if sum != b {
					bad("branch %s balance %d != teller sum %d", c.brKeys[g], b, sum)
				}
				total += b
			}
			if total != e.amount {
				bad("branch balances sum to %d, committed amounts to %d", total, e.amount)
			}
		}
		for n := 0; n < c.w.nodes; n++ {
			for v := 0; v < c.w.vols; v++ {
				f := "hist." + volName(n, v)
				if recs, ok := scanAll(f); ok && len(recs) != e.hist[f] {
					bad("%s holds %d history records, want %d commits", f, len(recs), e.hist[f])
				}
			}
		}
	}

	for i, n := range c.nodes {
		if got := homeCommits(n) - c.matBase[i]; got != e.commits[i] {
			bad("node %s Monitor Audit Trail records %d commits, benchmark counted %d", n.Name, got, e.commits[i])
		}
		st := n.TMF.Stats()
		if st.UnreleasedVolumes != 0 || st.BackoutScanFailures != 0 {
			bad("node %s: %d unreleased volumes, %d backout scan failures", n.Name, st.UnreleasedVolumes, st.BackoutScanFailures)
		}
		if d := n.TMF.InDoubt(); len(d) != 0 {
			bad("node %s: %d transactions in doubt", n.Name, len(d))
		}
		for _, v := range n.Volumes {
			if x := v.Proc.Stats().Sched.Violations; x != 0 {
				bad("volume %s: %d scheduler footprint violations", v.Spec.Name, x)
			}
		}
	}
	return probs
}
