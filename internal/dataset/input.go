package dataset

import (
	"log/slog"
	"os"

	"arcs/internal/obs"
)

// inferRows is how many data rows OpenCSV reads to infer a schema.
const inferRows = 10_000

// CSVInput is a CSV file read the way the commands and arcsd jobs read
// one: its schema inferred from the first 10,000 rows, and its rows
// streamed through a Resilient that quarantines malformed ones. It is a
// Source that re-reads the file on every pass; Load reads it into
// memory once instead.
type CSVInput struct {
	*Resilient
	path     string
	observer *obs.Observer
	attrs    []obs.Attr
}

// OpenCSV infers the schema of the CSV file at path and opens the file
// for streaming. Each pass may quarantine maxBadRows rows (-1
// unlimited, 0 strict); each quarantined row is logged at debug level
// and counted on observer's registry. observer, which may be nil, also
// gets a dataset.infer root span. runID, when set, is a run_id
// attribute on that span and on Load's, as core.Config.RunID is on
// core's root spans, and a run attribute on the log records.
func OpenCSV(path string, maxBadRows int, observer *obs.Observer, runID string) (*CSVInput, error) {
	in := &CSVInput{path: path, observer: observer}
	logger := slog.Default()
	if runID != "" {
		in.attrs = []obs.Attr{obs.Str("run_id", runID)}
		logger = logger.With("run", runID)
	}
	sp := observer.Root("dataset.infer", in.attrs...)
	schema, err := InferCSVSchema(path, inferRows)
	sp.End()
	if err != nil {
		return nil, err
	}
	cs, err := OpenCSVStream(path, schema)
	if err != nil {
		return nil, err
	}
	in.Resilient = NewResilient(cs, Retry{}, Quarantine{MaxBadRows: maxBadRows,
		OnBad: func(reason string, row int, err error) {
			logger.Debug("quarantined row", "reason", reason, "row", row, "err", err)
		}})
	if observer.Enabled() {
		in.Observe(observer.Registry())
	}
	return in, nil
}

// Load reads every row into a Table and closes the file. It records a
// dataset.load root span carrying the rows loaded, the rows quarantined
// and the file's size in bytes.
func (in *CSVInput) Load() (*Table, error) {
	sp := in.observer.Root("dataset.load", in.attrs...)
	tb, err := Materialize(in.Resilient)
	if cerr := in.Close(); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if sp.Enabled() {
		var size int64
		if fi, err := os.Stat(in.path); err == nil {
			size = fi.Size()
		}
		sp.End(obs.Int("rows", tb.Len()), obs.Int("quarantined", int(in.Stats().Total())),
			obs.Int("bytes", int(size)))
	}
	return tb, nil
}

// LogDegradation logs an "input degradation" warning with the rows
// quarantined so far, by reason, when there are any.
func (in *CSVInput) LogDegradation() {
	if st := in.Stats(); st.Total() > 0 {
		slog.Warn("input degradation", "rows_quarantined", st.Total(), "by_reason", st.Quarantined)
	}
}
