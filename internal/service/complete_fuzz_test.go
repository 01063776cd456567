package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"lowvcc/internal/journal"
)

// FuzzCompleteRequest: a lease-complete request body is untrusted input.
// Each body goes to POST /api/v1/lease/{id}/done on a fresh scheduler
// holding one leased baseline cell that an IRAW cell follows. The handler
// never panics; the cells complete only when the upload passes
// journal.Admit, and otherwise nothing is journaled; Queued() always
// equals the cells the sweep has not recorded.
func FuzzCompleteRequest(f *testing.F) {
	spec := canonSpec("baseline", "iraw")

	// A valid upload for the cell every fresh scheduler leases first.
	probe, _, err := NewScheduler(SchedulerOpts{JournalDir: f.TempDir()})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := probe.Submit(spec); err != nil {
		f.Fatal(err)
	}
	lease, err := probe.Acquire("probe")
	if err != nil || lease == nil {
		f.Fatalf("acquire: (%v, %v)", lease, err)
	}
	priv := f.TempDir()
	if err := executeCell(f.Context(), lease, WorkerOpts{JournalDir: priv}); err != nil {
		f.Fatal(err)
	}
	probe.Close()
	jnl, err := journal.Open(priv)
	if err != nil {
		f.Fatal(err)
	}
	entry, ok := jnl.GetRaw(lease.Cell.Key)
	if !ok {
		f.Fatal("probe cell left no journal entry")
	}
	body := func(worker, errMsg string, entry []byte) []byte {
		b, err := json.Marshal(map[string]any{"worker": worker, "err": errMsg, "entry": entry})
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	f.Add(body("w", "", entry))
	f.Add(body("w", "", entry[:len(entry)/2]))
	f.Add(body("w", "simulation failed", entry))

	f.Fuzz(func(t *testing.T, data []byte) {
		s := newTestScheduler(t, SchedulerOpts{MaxAttempts: 2})
		id, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		lease, err := s.Acquire("fuzz")
		if err != nil || lease == nil {
			t.Fatalf("acquire: (%v, %v)", lease, err)
		}

		// What the upload would do to an empty journal, decoded as the
		// handler decodes it.
		var req struct {
			Worker string `json:"worker"`
			Err    string `json:"err"`
			Entry  []byte `json:"entry"`
		}
		_ = json.NewDecoder(bytes.NewReader(data)).Decode(&req)
		scratch, err := journal.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		_, admitErr := scratch.Admit(lease.Cell.Key, req.Entry)
		admits := req.Err == "" && len(req.Entry) > 0 && admitErr == nil

		h := (&Server{sched: s}).Handler()
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/api/v1/lease/"+lease.ID+"/done", bytes.NewReader(data)))
		if w.Code != http.StatusNoContent && w.Code != http.StatusGone {
			t.Fatalf("complete answered %d", w.Code)
		}

		st, err := s.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if q := s.Queued(); q != st.Total-st.Done-st.Failed {
			t.Fatalf("Queued() = %d with status %+v", q, st)
		}
		n, err := s.Journal().Len()
		if err != nil {
			t.Fatal(err)
		}
		if admits {
			if st.Done != 2 || n != 2 {
				t.Fatalf("admissible upload: %d cells done, %d journaled, want 2 and 2", st.Done, n)
			}
			return
		}
		if st.Done != 0 || n != 0 {
			t.Fatalf("inadmissible upload (%v, err %q): %d cells done, %d journaled", admitErr, req.Err, st.Done, n)
		}
	})
}
