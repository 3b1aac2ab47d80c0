package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"

	"hbmvolt/internal/campaign"
	"hbmvolt/internal/service"
)

// The correctness gate. Every payload reaching it has already passed
// service.Client.Result's SHA-256 check against the server's checksum
// header; a payload that fails that check never gets here and counts as
// a wrong output too (see sweepOp).

// checkEnvelope verifies that a decoded payload answers exactly the
// request that was sent: same kind, same cache key, and the normalized
// request (kind, grid, ports, patterns and every other field) echoed
// back, with a result of the right kind and shape.
func checkEnvelope(want prepared, env *service.Envelope) error {
	if env.Kind != want.req.Kind {
		return fmt.Errorf("kind %q, want %q", env.Kind, want.req.Kind)
	}
	if k := service.FormatKey(want.key); env.Key != k {
		return fmt.Errorf("key %s, want %s", env.Key, k)
	}
	echo := want.req
	echo.Workers = 0
	if !reflect.DeepEqual(env.Request, echo) {
		return fmt.Errorf("request echo %+v, want %+v", env.Request, echo)
	}
	switch want.req.Kind {
	case service.KindReliability:
		res := env.Reliability
		if res == nil {
			return fmt.Errorf("reliability payload without a result")
		}
		if len(res.Points) != len(want.req.Grid) {
			return fmt.Errorf("%d voltage points, want %d", len(res.Points), len(want.req.Grid))
		}
		obs := len(want.req.Ports) * len(want.req.Patterns)
		for i, pt := range res.Points {
			if pt.Volts != want.req.Grid[i] {
				return fmt.Errorf("point %d at %vV, want %vV", i, pt.Volts, want.req.Grid[i])
			}
			if !pt.Crashed && len(pt.Observations) != obs {
				return fmt.Errorf("point %vV has %d observations, want %d", pt.Volts, len(pt.Observations), obs)
			}
		}
	case service.KindPower:
		if env.Power == nil {
			return fmt.Errorf("power payload without a result")
		}
	case service.KindFaultMap:
		if env.FaultMap == nil {
			return fmt.Errorf("faultmap payload without a result")
		}
	case service.KindECCStudy:
		if env.ECC == nil {
			return fmt.Errorf("ecc-study payload without a result")
		}
	}
	return nil
}

// checkSweep decodes a sweep payload and checks its echo.
func checkSweep(want prepared, payload []byte) error {
	env, err := service.DecodeResult(payload)
	if err != nil {
		return err
	}
	return checkEnvelope(want, env)
}

// checkSame requires the payload to be byte-equal to a reference
// computed for the same key. References are payloads that already
// passed checkSweep, so equal bytes decode and echo the same way.
func checkSame(want prepared, payload, ref []byte) error {
	if ref == nil {
		return fmt.Errorf("no reference payload for key %s", service.FormatKey(want.key))
	}
	if !bytes.Equal(payload, ref) {
		return fmt.Errorf("payload for key %s differs from its reference (%d vs %d bytes)",
			service.FormatKey(want.key), len(payload), len(ref))
	}
	return nil
}

// checkCampaign verifies a campaign's written artifacts: the manifest on
// disk is the result's manifest, and every scenario artifact decodes
// (campaign.DecodeArtifact) into one envelope per expanded cell, each
// echoing its cell's request and matching the manifest's checksum.
func checkCampaign(cells []campaign.Cell, res *campaign.Result, dir string) error {
	manifest, err := res.ManifestJSON()
	if err != nil {
		return err
	}
	disk, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return err
	}
	if !bytes.Equal(disk, manifest) {
		return fmt.Errorf("manifest.json differs from the run's manifest")
	}
	if res.Manifest.Cells != len(cells) {
		return fmt.Errorf("manifest has %d cells, spec expands to %d", res.Manifest.Cells, len(cells))
	}
	next := 0
	for _, sm := range res.Manifest.Scenarios {
		data, err := os.ReadFile(filepath.Join(dir, sm.Artifact))
		if err != nil {
			return err
		}
		envs, err := campaign.DecodeArtifact(data)
		if err != nil {
			return err
		}
		if len(envs) != len(sm.Cells) {
			return fmt.Errorf("scenario %s: artifact has %d envelopes, manifest %d cells", sm.Name, len(envs), len(sm.Cells))
		}
		lines := bytes.SplitAfter(data, []byte("\n"))
		for i, env := range envs {
			c := cells[next]
			next++
			if c.Scenario != sm.Name || c.Index != sm.Cells[i].Index {
				return fmt.Errorf("scenario %s cell %d: out of spec order", sm.Name, i)
			}
			if err := checkEnvelope(prepared{req: c.Request, key: c.Key}, env); err != nil {
				return fmt.Errorf("scenario %s cell %d: %w", sm.Name, c.Index, err)
			}
			sum := sha256.Sum256(lines[i])
			if got := hex.EncodeToString(sum[:]); got != sm.Cells[i].SHA256 {
				return fmt.Errorf("scenario %s cell %d: artifact sha256 %s, manifest %s", sm.Name, c.Index, got, sm.Cells[i].SHA256)
			}
		}
	}
	if next != len(cells) {
		return fmt.Errorf("artifacts cover %d cells, spec expands to %d", next, len(cells))
	}
	return nil
}
