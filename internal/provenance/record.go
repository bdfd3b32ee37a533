// Package provenance is the decision-provenance layer: a fixed-size
// flight recorder that keeps the last N DVFS decisions — raw counters,
// derived features, classifier logits, chosen level, Calibrator output,
// calibration state, and the degradation reason — and an online
// model-quality monitor that folds every decision (plus the next epoch's
// observed slowdown, where the caller can see it) into rolling-window
// drift statistics exported through the telemetry registry.
//
// The paper's self-calibration loop already compares the Calibrator's
// prediction against each epoch's observed instruction count; this
// package surfaces that comparison so an operator can answer "why did
// cluster 7 drop to level 2?" and "is the deployed model still accurate
// on this workload?" without re-running the experiment.
package provenance

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"

	"ssmdvfs/internal/atomicfile"
	"ssmdvfs/internal/counters"
)

// Reason says which path answered a decision. The values double as the
// wire-protocol reason byte (serve) and the JSONL dump encoding, so they
// must stay stable.
type Reason uint8

const (
	// ReasonModel is the healthy path: the Decision-maker answered.
	ReasonModel Reason = iota
	// ReasonFallback is a model failure answered by the analytical
	// fallback (injected model error or an unspecified failure).
	ReasonFallback
	// ReasonRejected is a NaN/Inf/out-of-range row rejected at the
	// boundary and answered by the fallback.
	ReasonRejected
	// ReasonPanic is a recovered model panic; the unreached rows of the
	// batch degrade to the fallback.
	ReasonPanic
	// ReasonDeadline is a blown per-decision budget.
	ReasonDeadline
	// ReasonFallbackOnly is the health state machine bypassing the model
	// entirely (fallback-only state, non-probe batch).
	ReasonFallbackOnly
	// ReasonHold is a controller that held the cluster's current
	// operating point because the model failed and no fallback is set.
	ReasonHold
	// ReasonShed is a fleet router shedding the row under admission
	// control (queue full, queue deadline passed, or no healthy replica)
	// and answering it with the analytical fallback instead of queuing
	// past the decision deadline.
	ReasonShed
	// ReasonRerouted marks a row the fleet router re-submitted to a
	// different replica after its home shard failed mid-request; the row
	// was still answered (by the new replica's path, or shed).
	ReasonRerouted

	// NumReasons bounds the enum for fixed-size per-reason tables.
	NumReasons = int(ReasonRerouted) + 1
)

var reasonNames = [NumReasons]string{
	"model", "fallback", "rejected", "panic", "deadline", "fallback-only", "hold",
	"shed", "rerouted",
}

func (r Reason) String() string {
	if int(r) < NumReasons {
		return reasonNames[r]
	}
	return "reason(" + strconv.Itoa(int(r)) + ")"
}

// ParseReason is the inverse of Reason.String.
func ParseReason(s string) (Reason, error) {
	for i, n := range reasonNames {
		if n == s {
			return Reason(i), nil
		}
	}
	return 0, fmt.Errorf("provenance: unknown reason %q", s)
}

// MaxAux bounds the derived-feature and logit arrays in a Record: the
// paper's selected feature set is five counters and its V/f tables have
// six levels, so eight leaves headroom without bloating the ring.
const MaxAux = 8

// Record is one decision's full provenance. Fixed-size arrays keep the
// ring-buffer slots flat so recording never allocates; NumRaw, NumDerived
// and NumLogits say how much of each array is meaningful.
type Record struct {
	// Seq is the recorder-assigned monotonic sequence number (1-based);
	// it doubles as the trace ID for one decision.
	Seq uint64
	// GPU, Cluster and Epoch locate the decision. Serving-path records
	// carry the row's GPU and cluster (-1 for a row without identity) and
	// Epoch -1; simulator records serve one GPU and leave GPU 0.
	GPU     int32
	Cluster int32
	Epoch   int32
	// Level is the operating level answered; Reason says by which path.
	Level  int32
	Reason Reason
	// Preset is the user's performance-loss preset, EffPreset the
	// self-calibrated preset actually fed to the Decision-maker (equal to
	// Preset on paths without calibration).
	Preset    float64
	EffPreset float64
	// PredInstr is the Calibrator's next-epoch instruction estimate.
	PredInstr float64
	// PredErr is the relative error of the *previous* epoch's prediction
	// against this epoch's observed instruction count, (pred-actual)/pred
	// — the quantity the self-calibration loop acts on. Valid only when
	// HasPredErr is set (the first epoch of a cluster has no prediction).
	PredErr    float64
	HasPredErr bool
	// PrevLevel is the level last answered for the same (GPU, cluster)
	// identity, valid only when HasPrevLevel is set (an identity's first
	// decision has none): the producer keeps that state, and the monitor
	// counts a flip from these fields alone. The dump carries them as
	// prev_level, so a replay counts the same flips.
	HasPrevLevel bool
	PrevLevel    int32
	// LatencyNs is how long the decision took end to end.
	LatencyNs int64
	// TraceID links the decision to its distributed trace (0 = the
	// request was not sampled): the same 64-bit ID appears on every span
	// of the request's client → router → replica path and on latency-
	// histogram exemplars, so /debug/decisions?trace= resolves an
	// exemplar straight to this record.
	TraceID uint64
	// ModelGen is the lineage generation of the model that was serving
	// when the decision was recorded (0 = an offline/unversioned model),
	// so an online-adaptation audit can attribute every decision to the
	// exact incumbent, candidate, or rolled-back model that produced it.
	ModelGen uint32

	// Raw is the full per-epoch counter row (counters.Num wide).
	NumRaw int32
	Raw    [counters.Num]float64
	// Derived is the model's selected feature subset, unscaled.
	NumDerived int32
	Derived    [MaxAux]float64
	// Logits is the Decision head's output (one score per level).
	NumLogits int32
	Logits    [MaxAux]float64
}

// SetRaw copies row into the fixed raw-counter array (truncating past
// counters.Num) without allocating.
func (r *Record) SetRaw(row []float64) {
	n := copy(r.Raw[:], row)
	r.NumRaw = int32(n)
}

// RawFeatures returns the populated prefix of the raw counter row —
// the slice replay consumers (ledger accounting, drift audits) feed back
// through the same arithmetic the online path used.
func (r *Record) RawFeatures() []float64 {
	n := r.NumRaw
	if n < 0 {
		n = 0
	}
	if int(n) > len(r.Raw) {
		n = int32(len(r.Raw))
	}
	return r.Raw[:n]
}

// SetDerived copies the selected feature subset (truncating past MaxAux).
func (r *Record) SetDerived(row []float64) {
	n := copy(r.Derived[:], row)
	r.NumDerived = int32(n)
}

// SetLogits copies the decision logits (truncating past MaxAux).
func (r *Record) SetLogits(row []float64) {
	n := copy(r.Logits[:], row)
	r.NumLogits = int32(n)
}

// jsonRecord mirrors Record for the JSONL dump, with trimmed arrays and
// the reason rendered as its stable string.
type jsonRecord struct {
	Seq uint64 `json:"seq"`
	// GPU is omitted for GPU 0, so single-GPU (simulator) dumps stay
	// byte-identical.
	GPU       int32  `json:"gpu,omitempty"`
	Cluster   int32  `json:"cluster"`
	Epoch     int32  `json:"epoch"`
	Level     int32  `json:"level"`
	PrevLevel *int32 `json:"prev_level,omitempty"` // nil on an identity's first decision
	Reason    string `json:"reason"`
	Preset    float  `json:"preset"`
	EffPreset float  `json:"eff_preset"`
	PredInstr float  `json:"pred_instr"`
	// PredErr is a pointer so records without a previous prediction omit
	// the field instead of emitting a meaningless zero.
	PredErr   *float `json:"pred_err,omitempty"`
	LatencyNs int64  `json:"latency_ns"`
	// TraceID is the distributed-trace ID in fixed-width hex, omitted
	// for unsampled decisions (so pre-tracing dumps stay byte-identical).
	TraceID string `json:"trace_id,omitempty"`
	// ModelGen is omitted for generation-0 (offline) models, so dumps
	// from daemons without online adaptation stay byte-identical.
	ModelGen uint32 `json:"model_gen,omitempty"`
	Raw      floats `json:"raw,omitempty"`
	Derived  floats `json:"derived,omitempty"`
	Logits   floats `json:"logits,omitempty"`
}

// floats marshals a float slice with non-finite values encoded as the
// strings "NaN", "+Inf", "-Inf" — rejected rows legitimately carry NaN
// features, and a provenance dump must not choke on exactly the records
// it exists to explain.
type floats []float64

func (f floats) MarshalJSON() ([]byte, error) {
	var b bytes.Buffer
	b.WriteByte('[')
	for i, v := range f {
		if i > 0 {
			b.WriteByte(',')
		}
		if s, ok := nonFinite(v); ok {
			b.WriteString(s)
		} else {
			b.Write(strconv.AppendFloat(nil, v, 'g', -1, 64))
		}
	}
	b.WriteByte(']')
	return b.Bytes(), nil
}

func (f *floats) UnmarshalJSON(data []byte) error {
	var raw []float
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	*f = make([]float64, len(raw))
	for i, v := range raw {
		(*f)[i] = float64(v)
	}
	return nil
}

// float is one scalar of a record the same way: a rejected row's preset
// may be NaN, and so the realized error of a prediction against it.
// Finite values write as encoding/json writes a float64.
type float float64

func (f float) MarshalJSON() ([]byte, error) {
	if s, ok := nonFinite(float64(f)); ok {
		return []byte(s), nil
	}
	return json.Marshal(float64(f))
}

func (f *float) UnmarshalJSON(data []byte) error {
	var s string
	if json.Unmarshal(data, &s) != nil || s == "" && string(data) == "null" {
		return json.Unmarshal(data, (*float64)(f))
	}
	v, err := parseNonFinite(s)
	*f = float(v)
	return err
}

// parseNonFinite reads the string a non-finite value writes as.
func parseNonFinite(s string) (float64, error) {
	switch s {
	case "NaN":
		return math.NaN(), nil
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	}
	return 0, fmt.Errorf("provenance: bad float string %q", s)
}

// nonFinite is the quoted JSON string a non-finite v writes as.
func nonFinite(v float64) (string, bool) {
	switch {
	case math.IsNaN(v):
		return `"NaN"`, true
	case math.IsInf(v, 1):
		return `"+Inf"`, true
	case math.IsInf(v, -1):
		return `"-Inf"`, true
	}
	return "", false
}

func (r *Record) toJSON() jsonRecord {
	j := jsonRecord{
		Seq:       r.Seq,
		GPU:       r.GPU,
		Cluster:   r.Cluster,
		Epoch:     r.Epoch,
		Level:     r.Level,
		Reason:    r.Reason.String(),
		Preset:    float(r.Preset),
		EffPreset: float(r.EffPreset),
		PredInstr: float(r.PredInstr),
		LatencyNs: r.LatencyNs,
		ModelGen:  r.ModelGen,
		Raw:       floats(r.Raw[:r.NumRaw]),
		Derived:   floats(r.Derived[:r.NumDerived]),
		Logits:    floats(r.Logits[:r.NumLogits]),
	}
	if r.HasPrevLevel {
		l := r.PrevLevel
		j.PrevLevel = &l
	}
	if r.HasPredErr {
		e := float(r.PredErr)
		j.PredErr = &e
	}
	if r.TraceID != 0 {
		j.TraceID = fmt.Sprintf("%016x", r.TraceID)
	}
	return j
}

func (j *jsonRecord) toRecord() (Record, error) {
	reason, err := ParseReason(j.Reason)
	if err != nil {
		return Record{}, err
	}
	r := Record{
		Seq:       j.Seq,
		GPU:       j.GPU,
		Cluster:   j.Cluster,
		Epoch:     j.Epoch,
		Level:     j.Level,
		Reason:    reason,
		Preset:    float64(j.Preset),
		EffPreset: float64(j.EffPreset),
		PredInstr: float64(j.PredInstr),
		LatencyNs: j.LatencyNs,
		ModelGen:  j.ModelGen,
	}
	if j.PrevLevel != nil {
		r.PrevLevel = *j.PrevLevel
		r.HasPrevLevel = true
	}
	if j.PredErr != nil {
		r.PredErr = float64(*j.PredErr)
		r.HasPredErr = true
	}
	if j.TraceID != "" {
		id, err := strconv.ParseUint(j.TraceID, 16, 64)
		if err != nil {
			return Record{}, fmt.Errorf("provenance: bad trace id %q: %w", j.TraceID, err)
		}
		r.TraceID = id
	}
	r.SetRaw(j.Raw)
	r.SetDerived(j.Derived)
	r.SetLogits(j.Logits)
	return r, nil
}

// Header is the first line of a recorder dump: it attributes the records
// to a binary + model pair and carries the training-set feature
// statistics offline drift analysis needs.
type Header struct {
	Schema int `json:"schema"`
	// Build identifies the producing binary (see internal/buildinfo).
	Build map[string]string `json:"build,omitempty"`
	// Features names the model's selected counters, aligned with each
	// record's Derived array; TrainMean/TrainStd are the training-set
	// statistics of those features (from the model artifact's scaler).
	Features  []string  `json:"features,omitempty"`
	TrainMean []float64 `json:"train_mean,omitempty"`
	TrainStd  []float64 `json:"train_std,omitempty"`
	// Levels and ModelParams describe the model the decisions came from.
	Levels      int `json:"levels,omitempty"`
	ModelParams int `json:"model_params,omitempty"`
	// Capacity and Head snapshot the ring's state at dump time (Head is
	// the total number of records ever written; Head - len(records) were
	// overwritten).
	Capacity int    `json:"capacity,omitempty"`
	Head     uint64 `json:"head,omitempty"`
}

// headerSchema is the current dump schema version.
const headerSchema = 1

// WriteRecords writes a header line followed by one JSON record per line
// (the JSONL dump format cmd/dvfsstat's -decisions view consumes).
func WriteRecords(w io.Writer, hdr Header, recs []Record) error {
	bw := bufio.NewWriter(w)
	hdr.Schema = headerSchema
	enc := json.NewEncoder(bw)
	if err := enc.Encode(hdr); err != nil {
		return err
	}
	for i := range recs {
		j := recs[i].toJSON()
		if err := enc.Encode(&j); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadRecords parses a dump written by WriteRecords.
func ReadRecords(r io.Reader) (Header, []Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	var hdr Header
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return hdr, nil, err
		}
		return hdr, nil, fmt.Errorf("provenance: empty dump")
	}
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return hdr, nil, fmt.Errorf("provenance: bad header: %w", err)
	}
	if hdr.Schema != headerSchema {
		return hdr, nil, fmt.Errorf("provenance: unsupported dump schema %d", hdr.Schema)
	}
	var recs []Record
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var j jsonRecord
		if err := json.Unmarshal(sc.Bytes(), &j); err != nil {
			return hdr, recs, fmt.Errorf("provenance: record %d: %w", len(recs)+1, err)
		}
		rec, err := j.toRecord()
		if err != nil {
			return hdr, recs, fmt.Errorf("provenance: record %d: %w", len(recs)+1, err)
		}
		recs = append(recs, rec)
	}
	return hdr, recs, sc.Err()
}

// ReadFile reads a dump from disk.
func ReadFile(path string) (Header, []Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return Header{}, nil, err
	}
	defer f.Close()
	return ReadRecords(f)
}

// WriteFile atomically writes a recorder's current contents (plus the
// attribution header) to path.
func WriteFile(path string, hdr Header, r *Recorder) error {
	recs := r.Snapshot(nil)
	hdr.Capacity = r.Cap()
	hdr.Head = r.Head()
	return atomicfile.Write(path, func(w io.Writer) error {
		return WriteRecords(w, hdr, recs)
	})
}
