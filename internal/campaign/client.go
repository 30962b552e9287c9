package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"ipas/internal/fault"
)

// ErrNotComplete reports that a campaign is still running (the
// coordinator answered 425 Too Early).
var ErrNotComplete = errors.New("campaign: not complete yet")

// Client submits campaigns to a coordinator and retrieves their
// results. The zero HTTP field uses http.DefaultClient.
type Client struct {
	// Base is the coordinator's base URL (http://host:port).
	Base string
	HTTP *http.Client
}

// Submit sends a campaign spec and returns the coordinator's admission
// response plus the HTTP status classifying it (201 fresh, 200
// resumed, 202 re-run from trial 0 after a corrupt journal was
// deleted).
// Mismatch (409) and locked-journal (423) rejections come back as
// errors wrapping fault.ErrCampaignMismatch / fault.ErrJournalLocked
// so callers branch on them the same way local journal code does.
func (c *Client) Submit(ctx context.Context, spec Spec) (SubmitResponse, int, error) {
	var out SubmitResponse
	status, body, err := roundTrip(ctx, c.HTTP, http.MethodPost, c.Base+"/api/v1/campaigns", spec, &out)
	if err != nil {
		return out, status, err
	}
	switch status {
	case http.StatusCreated, http.StatusOK, http.StatusAccepted:
		return out, status, nil
	case http.StatusConflict:
		return out, status, fmt.Errorf("campaign: %w: %s", fault.ErrCampaignMismatch, strings.TrimSpace(string(body)))
	case http.StatusLocked:
		return out, status, fmt.Errorf("campaign: %w: %s", fault.ErrJournalLocked, strings.TrimSpace(string(body)))
	}
	return out, status, fmt.Errorf("campaign: submit: HTTP %d: %s", status, strings.TrimSpace(string(body)))
}

// Progress fetches a campaign's live progress.
func (c *Client) Progress(ctx context.Context, id string) (Progress, error) {
	var out Progress
	status, body, err := roundTrip(ctx, c.HTTP, http.MethodGet, c.Base+"/api/v1/campaigns/"+id, nil, &out)
	if err != nil {
		return out, err
	}
	if status != http.StatusOK {
		return out, fmt.Errorf("campaign: progress of %s: HTTP %d: %s", id, status, strings.TrimSpace(string(body)))
	}
	return out, nil
}

// Result fetches a completed campaign's result, rebuilding the
// aggregate statistics locally with Finalize. Returns ErrNotComplete
// while shards are outstanding.
func (c *Client) Result(ctx context.Context, id string) (*fault.CampaignResult, error) {
	var out ResultResponse
	status, body, err := roundTrip(ctx, c.HTTP, http.MethodGet, c.Base+"/api/v1/campaigns/"+id+"/result", nil, &out)
	if err != nil {
		return nil, err
	}
	switch status {
	case http.StatusOK:
	case http.StatusTooEarly:
		return nil, ErrNotComplete
	default:
		return nil, fmt.Errorf("campaign: result of %s: HTTP %d: %s", id, status, strings.TrimSpace(string(body)))
	}
	res := &fault.CampaignResult{GoldenDyn: out.GoldenDyn, Trials: out.Trials}
	res.Finalize()
	return res, nil
}

// WaitResult polls until the campaign completes (or ctx ends) and
// returns its result. onProgress, when non-nil, receives each polled
// progress snapshot.
func (c *Client) WaitResult(ctx context.Context, id string, poll time.Duration, onProgress func(Progress)) (*fault.CampaignResult, error) {
	if poll <= 0 {
		poll = 500 * time.Millisecond
	}
	for {
		res, err := c.Result(ctx, id)
		if err == nil {
			return res, nil
		}
		if !errors.Is(err, ErrNotComplete) {
			return nil, err
		}
		if onProgress != nil {
			if p, perr := c.Progress(ctx, id); perr == nil {
				onProgress(p)
			}
		}
		select {
		case <-time.After(poll):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// roundTrip performs one HTTP exchange with a coordinator: in, when
// non-nil, goes out as the JSON request body, and a non-empty 2xx
// response body is decoded into out when out is non-nil (acquire's 204
// carries none). It returns the status and the raw response body, which
// carries the coordinator's message on an error status. Client and
// Worker share it.
func roundTrip(ctx context.Context, hc *http.Client, method, url string, in, out any) (int, []byte, error) {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return 0, nil, err
		}
		body = bytes.NewReader(data)
	}
	if hc == nil {
		hc = http.DefaultClient
	}
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	if out != nil && resp.StatusCode/100 == 2 && len(raw) > 0 {
		if err := json.Unmarshal(raw, out); err != nil {
			return resp.StatusCode, raw, fmt.Errorf("campaign: decoding %s %s response: %w", method, url, err)
		}
	}
	return resp.StatusCode, raw, nil
}
