package hive

import (
	"fmt"

	"flashfc/internal/coherence"
	"flashfc/internal/magic"
	"flashfc/internal/proc"
	"flashfc/internal/sim"
	"flashfc/internal/timing"
)

// The parallel-make workload of §5.1: one compile task per cell, with one
// cell acting as the file server for all the others. The Hive file system
// moves file data across cell boundaries through shared memory, so each
// compile generates heavy cross-cell coherence traffic: the client reads
// its input file from server memory (shared fetches), computes, writes its
// object file into its own memory, pushes a result summary into a
// server-owned page (exclusive fetches of remote memory — the lines that
// can become incoherent when a client cell dies), and finally submits the
// artifact checksum by RPC.

// MakeConfig tunes the workload.
type MakeConfig struct {
	FileLines   int // input file size in lines
	OutputLines int // object file size in lines
	ResultLines int // lines pushed into the server's results page
	ComputeTime sim.Time
}

// DefaultMakeConfig returns a GnuChess-compile-sized task (scaled down to
// simulation-friendly sizes).
func DefaultMakeConfig() MakeConfig {
	return MakeConfig{
		FileLines:   192,
		OutputLines: 64,
		ResultLines: 8,
		ComputeTime: 2 * sim.Millisecond,
	}
}

// TaskState tracks a compile's progress.
type TaskState int

const (
	TaskOpening TaskState = iota
	TaskReading
	TaskComputing
	TaskWritingResults
	TaskSubmitting
	TaskCompleted
	TaskFailed
)

func (s TaskState) String() string {
	switch s {
	case TaskOpening:
		return "opening"
	case TaskReading:
		return "reading"
	case TaskComputing:
		return "computing"
	case TaskWritingResults:
		return "writing-results"
	case TaskSubmitting:
		return "submitting"
	case TaskCompleted:
		return "completed"
	case TaskFailed:
		return "failed"
	default:
		return "?"
	}
}

// CompileTask is one cell's compile. Everything an in-flight operation
// needs lives here, so the task's three completions are bound once and no
// memory operation allocates a closure.
type CompileTask struct {
	Cell    *Cell
	FileID  int
	State   TaskState
	FailWhy string

	mk       *Make
	file     *openReply // the server's answer to "open"
	inputSum uint64
	readIdx  int
	writeIdx int
	resIdx   int
	artifact uint64
	// readDone, outputDone and resultDone complete an input read, an
	// object-file store and a results-page store.
	readDone, outputDone, resultDone func(coherence.Addr, magic.Result)
}

// openReply is the server's answer to "open".
type openReply struct {
	Base  coherence.Addr
	Lines int
}

// submitArgs carries the artifact checksum to the server.
type submitArgs struct {
	FileID   int
	Artifact uint64
}

// Make drives one parallel-make run.
type Make struct {
	H   *Hive
	Cfg MakeConfig

	Server    *Cell
	Tasks     []*CompileTask
	fileSums  []uint64
	submitted map[int]uint64 // fileID -> artifact received by the server
	onAllIdle func()
}

// NewMake prepares the workload: cell 0 serves files to every other cell.
// It panics if the layout does not fit a node's memory (see checkLayout).
func NewMake(h *Hive, cfg MakeConfig) *Make {
	mk := &Make{H: h, Cfg: cfg, Server: h.Cells[0], submitted: map[int]uint64{}}
	mk.checkLayout()
	mk.prepareFiles()
	mk.Server.Handle("open", mk.handleOpen)
	mk.Server.Handle("submit", mk.handleSubmit)
	for ci := 1; ci < len(h.Cells); ci++ {
		t := &CompileTask{Cell: h.Cells[ci], FileID: ci - 1, mk: mk}
		t.readDone, t.outputDone, t.resultDone = t.readCompleted, t.outputStored, t.resultStored
		mk.Tasks = append(mk.Tasks, t)
	}
	// OS recovery terminates applications with essential dependencies on
	// dead cells (§4.6); Evaluate later classifies them as excused or
	// failed depending on why the cell died.
	prev := h.OnCellDeath
	h.OnCellDeath = func(c *Cell, why string) {
		if prev != nil {
			prev(c, why)
		}
		for _, t := range mk.Tasks {
			if t.Cell == c {
				mk.fail(t, "terminated: "+why)
			}
		}
	}
	return mk
}

// Memory layout inside the server boss node's memory: kernel pages, then
// input files, then one results page per client.
func (mk *Make) fileBase(fileID int) coherence.Addr {
	base := mk.H.M.Space.Base(mk.Server.Boss())
	off := kernelPages * timing.PageSize
	return base + coherence.Addr(off+fileID*mk.Cfg.FileLines*timing.LineSize)
}

func (mk *Make) resultsBase(fileID int) coherence.Addr {
	base := mk.H.M.Space.Base(mk.Server.Boss())
	off := kernelPages*timing.PageSize +
		(len(mk.H.Cells)-1)*mk.Cfg.FileLines*timing.LineSize
	off = (off + timing.PageSize - 1) &^ (timing.PageSize - 1)
	return base + coherence.Addr(off+fileID*timing.PageSize)
}

// outputBase is the client-local object-file region, above its kernel pages.
func (mk *Make) outputBase(t *CompileTask) coherence.Addr {
	base := mk.H.M.Space.Base(t.Cell.Boss())
	return base + coherence.Addr(kernelPages*timing.PageSize)
}

// checkLayout refuses a layout that runs a region past its node's memory,
// where the make would silently read or overwrite another node's memory and
// a fault-free run would fail like a containment failure.
func (mk *Make) checkLayout() {
	mem := mk.H.M.Cfg.MemBytes
	clients := len(mk.H.Cells) - 1
	if n := mk.Cfg.ResultLines * timing.LineSize; n > timing.PageSize {
		panic(fmt.Sprintf("hive: %d result lines (%d bytes) overflow a %d-byte results page",
			mk.Cfg.ResultLines, n, timing.PageSize))
	}
	// The results page past the last client's ends the server's layout.
	if end := uint64(mk.resultsBase(clients) - mk.H.M.Space.Base(mk.Server.Boss())); end > mem {
		panic(fmt.Sprintf("hive: %d kernel pages, %d input files of %d lines and %d results pages need %d bytes; the server node has %d",
			kernelPages, clients, mk.Cfg.FileLines, clients, end, mem))
	}
	if end := uint64(kernelPages*timing.PageSize + (mk.Cfg.OutputLines+1)*timing.LineSize); end > mem {
		panic(fmt.Sprintf("hive: %d kernel pages and %d output lines need %d bytes; a client node has %d",
			kernelPages, mk.Cfg.OutputLines, end, mem))
	}
}

// prepareFiles fills the server's file regions (modeling the page cache
// holding the sources) and records the expected checksums.
func (mk *Make) prepareFiles() {
	mem := mk.H.M.Nodes[mk.Server.Boss()].Mem
	for f := 0; f < len(mk.H.Cells)-1; f++ {
		sum := uint64(0)
		for l := 0; l < mk.Cfg.FileLines; l++ {
			addr := mk.fileBase(f) + coherence.Addr(l*timing.LineSize)
			tok := mk.H.M.Oracle.NextToken()
			mem.Write(addr, tok)
			mk.H.M.Oracle.Wrote(addr, tok)
			sum += tok
		}
		mk.fileSums = append(mk.fileSums, sum)
	}
}

func (mk *Make) handleOpen(from int, args any) (any, error) {
	fileID := args.(int)
	if fileID < 0 || fileID >= len(mk.fileSums) {
		return nil, fmt.Errorf("make: no such file %d", fileID)
	}
	return &openReply{Base: mk.fileBase(fileID), Lines: mk.Cfg.FileLines}, nil
}

func (mk *Make) handleSubmit(from int, args any) (any, error) {
	sa := args.(*submitArgs)
	mk.submitted[sa.FileID] = sa.Artifact
	return true, nil
}

// Start launches all compiles; onAllIdle fires when every task has either
// completed or failed.
func (mk *Make) Start(onAllIdle func()) {
	mk.onAllIdle = onAllIdle
	for _, t := range mk.Tasks {
		mk.open(t)
	}
}

func (mk *Make) fail(t *CompileTask, why string) {
	if t.State == TaskCompleted || t.State == TaskFailed {
		return
	}
	t.State = TaskFailed
	t.FailWhy = why
	mk.checkIdle()
}

func (mk *Make) complete(t *CompileTask) {
	t.State = TaskCompleted
	mk.checkIdle()
}

func (mk *Make) checkIdle() {
	for _, t := range mk.Tasks {
		if t.State != TaskCompleted && t.State != TaskFailed {
			return
		}
	}
	if mk.onAllIdle != nil {
		fn := mk.onAllIdle
		mk.onAllIdle = nil
		fn()
	}
}

func (mk *Make) open(t *CompileTask) {
	t.State = TaskOpening
	t.Cell.Call(mk.Server, "open", t.FileID, func(v any, err error) {
		if err != nil {
			mk.fail(t, "open: "+err.Error())
			return
		}
		t.State = TaskReading
		t.file = v.(*openReply)
		mk.readNext(t)
	})
}

// readNext streams the input file, retrying recovery-aborted reads and
// failing on bus errors (input data lost with the server).
func (mk *Make) readNext(t *CompileTask) {
	if !t.Cell.Alive() {
		mk.fail(t, "cell died while reading")
		return
	}
	if t.readIdx >= t.file.Lines {
		mk.computeStep(t)
		return
	}
	addr := t.file.Base + coherence.Addr(t.readIdx*timing.LineSize)
	mk.cpu(t).Submit(proc.Op{Kind: proc.OpRead, Addr: addr, DoneAt: t.readDone})
}

// readCompleted completes an input read.
func (t *CompileTask) readCompleted(_ coherence.Addr, r magic.Result) {
	switch r.Err {
	case nil:
		t.inputSum += r.Token
		t.readIdx++
		t.mk.readNext(t)
	case magic.ErrAborted:
		t.mk.readNext(t) // reissue after recovery
	default:
		t.mk.fail(t, fmt.Sprintf("input line %d: %v", t.readIdx, r.Err))
	}
}

// computeDone ends a task's compute step; a1 is the task.
var computeDone sim.Callback = func(a1, _ any, _ uint64) {
	t := a1.(*CompileTask)
	t.mk.writeOutput(t)
}

func (mk *Make) computeStep(t *CompileTask) {
	t.State = TaskComputing
	mk.H.M.E.AfterCall(mk.Cfg.ComputeTime, computeDone, t, nil, 0)
}

// writeOutput writes the object file into the cell's own memory.
func (mk *Make) writeOutput(t *CompileTask) {
	if !t.Cell.Alive() {
		mk.fail(t, "cell died while writing output")
		return
	}
	if t.writeIdx >= mk.Cfg.OutputLines {
		t.State = TaskWritingResults
		mk.writeResults(t)
		return
	}
	addr := mk.outputBase(t) + coherence.Addr((t.writeIdx+1)*timing.LineSize)
	mk.cpu(t).Submit(proc.Op{Kind: proc.OpWrite, Addr: addr, Token: mk.H.M.Oracle.NextToken(), DoneAt: t.outputDone})
}

// outputStored completes an object-file store. A committed store
// completes with the token it stored.
func (t *CompileTask) outputStored(addr coherence.Addr, r magic.Result) {
	switch r.Err {
	case nil:
		t.mk.H.M.Oracle.Wrote(addr, r.Token)
		t.artifact += r.Token
		t.writeIdx++
		t.mk.writeOutput(t)
	case magic.ErrAborted:
		t.mk.writeOutput(t)
	default:
		t.mk.fail(t, fmt.Sprintf("output line %d: %v", t.writeIdx, r.Err))
	}
}

// writeResults pushes the result summary into the server-owned results
// page: cross-cell exclusive fetches, the lines that become incoherent if
// this cell dies holding them dirty.
func (mk *Make) writeResults(t *CompileTask) {
	if !t.Cell.Alive() {
		mk.fail(t, "cell died while writing results")
		return
	}
	if t.resIdx >= mk.Cfg.ResultLines {
		mk.submit(t)
		return
	}
	addr := mk.resultsBase(t.FileID) + coherence.Addr(t.resIdx*timing.LineSize)
	mk.cpu(t).Submit(proc.Op{Kind: proc.OpWrite, Addr: addr, Token: mk.H.M.Oracle.NextToken(), DoneAt: t.resultDone})
}

// resultStored completes a results-page store.
func (t *CompileTask) resultStored(addr coherence.Addr, r magic.Result) {
	switch r.Err {
	case nil:
		t.mk.H.M.Oracle.Wrote(addr, r.Token)
		t.resIdx++
		t.mk.writeResults(t)
	case magic.ErrAborted:
		t.mk.writeResults(t)
	default:
		t.mk.fail(t, fmt.Sprintf("result line %d: %v", t.resIdx, r.Err))
	}
}

// cpu is the processor that runs t's compile.
func (mk *Make) cpu(t *CompileTask) *proc.CPU { return mk.H.M.Nodes[t.Cell.Boss()].CPU }

func (mk *Make) submit(t *CompileTask) {
	t.State = TaskSubmitting
	t.artifact += t.inputSum
	t.Cell.Call(mk.Server, "submit", &submitArgs{FileID: t.FileID, Artifact: t.artifact}, func(v any, err error) {
		if err != nil {
			mk.fail(t, "submit: "+err.Error())
			return
		}
		mk.complete(t)
	})
}

// Outcome is the verdict of one end-to-end run (one Table 5.4 experiment).
type Outcome struct {
	Completed  int
	Excused    int // compiles lost with their own cell or the server cell
	Failures   []string
	ServerDied bool
}

// OK reports whether the run counts as successful: every compile not
// affected by the fault finished correctly (§5.2: "91.6% of the runs
// correctly finished executing the compiles that were not affected").
func (o *Outcome) OK() bool { return len(o.Failures) == 0 }

// Evaluate classifies every task after the run has gone idle.
func (mk *Make) Evaluate() *Outcome {
	o := &Outcome{ServerDied: !mk.Server.Alive()}
	for _, t := range mk.Tasks {
		cellHWDead := !t.Cell.alive
		cellCrashed := t.Cell.crashed
		switch {
		case t.State == TaskCompleted:
			got, ok := mk.submitted[t.FileID]
			want := mk.expectedArtifact(t)
			if !ok || got != want {
				o.Failures = append(o.Failures,
					fmt.Sprintf("task %d: artifact mismatch (got %x want %x)", t.FileID, got, want))
				continue
			}
			o.Completed++
		case cellHWDead || o.ServerDied:
			// Affected by the fault: excused.
			o.Excused++
		case cellCrashed:
			o.Failures = append(o.Failures,
				fmt.Sprintf("task %d: cell crashed: %s", t.FileID, t.Cell.crashWhy))
		default:
			o.Failures = append(o.Failures,
				fmt.Sprintf("task %d: %v (%s)", t.FileID, t.State, t.FailWhy))
		}
	}
	// A software crash of the server is also a containment failure.
	if crashed, why := mk.Server.Crashed(); crashed {
		o.Failures = append(o.Failures, "server cell crashed: "+why)
	}
	return o
}

func (mk *Make) expectedArtifact(t *CompileTask) uint64 {
	// inputSum is validated against the prepared file sum; output tokens
	// were accumulated as written.
	return t.artifact - t.inputSum + mk.fileSums[t.FileID]
}

// Idle reports whether all tasks reached a terminal state.
func (mk *Make) Idle() bool {
	for _, t := range mk.Tasks {
		if t.State != TaskCompleted && t.State != TaskFailed {
			return false
		}
	}
	return true
}
