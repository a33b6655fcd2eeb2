package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/model"
	"repro/internal/trace"
)

// Run-file helpers shared by the command-line tools: recorded runs travel
// either as the binary container (compact, checksummed) or as the
// long-standing trace JSON.  "auto" sniffs the container magic on decode and
// means binary on encode.

// FormatBin, FormatJSON and FormatAuto are the accepted -format values.
const (
	FormatBin  = "bin"
	FormatJSON = "json"
	FormatAuto = "auto"
)

func checkFormat(format string) error {
	switch format {
	case FormatBin, FormatJSON, FormatAuto:
		return nil
	default:
		return fmt.Errorf("store: unknown format %q (have bin | json | auto)", format)
	}
}

// WriteRunFile writes one recorded run to path.  Format "auto" means binary.
func WriteRunFile(path, format string, run *model.Run) error {
	if err := checkFormat(format); err != nil {
		return err
	}
	var data []byte
	if format == FormatJSON {
		var buf bytes.Buffer
		if err := trace.EncodeJSON(&buf, run); err != nil {
			return err
		}
		data = buf.Bytes()
	} else {
		data = EncodeRun(run)
	}
	return os.WriteFile(path, data, 0o644)
}

// ReadRunFile reads one recorded run from path.  Format "auto" sniffs the
// binary container magic and falls back to JSON; both decoders validate the
// run before returning it.  The returned run is owned by the caller.
func ReadRunFile(path, format string) (*model.Run, error) {
	if err := checkFormat(format); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	useBin := format == FormatBin
	if format == FormatAuto {
		useBin = len(data) >= len(magic) && [4]byte(data[:4]) == magic
	}
	var run *model.Run
	if useBin {
		run, err = DecodeRun(data)
	} else {
		run, err = trace.DecodeJSON(bytes.NewReader(data))
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return run, nil
}

// WriteSystemFile writes an ordered sequence of recorded runs to path: the
// binary System container, or an indented JSON array of runs.
func WriteSystemFile(path, format string, runs model.System) error {
	if err := checkFormat(format); err != nil {
		return err
	}
	var data []byte
	if format == FormatJSON {
		raw, err := json.MarshalIndent(runs, "", "  ")
		if err != nil {
			return fmt.Errorf("store: encode system: %w", err)
		}
		data = append(raw, '\n')
	} else {
		data = EncodeSystem(runs)
	}
	return os.WriteFile(path, data, 0o644)
}
