package imgcore

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
)

// DecodePNM reads a binary PGM (P5, grayscale) or PPM (P6, color) stream —
// the lingua franca of research image toolchains. Maxval up to 65535 is
// accepted; 16-bit samples are rescaled to [0,255].
func DecodePNM(r io.Reader) (*Image, error) {
	br := bufio.NewReader(r)
	magic, err := pnmToken(br)
	if err != nil {
		return nil, fmt.Errorf("imgcore: pnm magic: %w", err)
	}
	var channels int
	switch magic {
	case "P5":
		channels = 1
	case "P6":
		channels = 3
	default:
		return nil, fmt.Errorf("imgcore: unsupported pnm magic %q (want P5 or P6)", magic)
	}
	w, err := pnmInt(br)
	if err != nil {
		return nil, fmt.Errorf("imgcore: pnm width: %w", err)
	}
	h, err := pnmInt(br)
	if err != nil {
		return nil, fmt.Errorf("imgcore: pnm height: %w", err)
	}
	maxval, err := pnmInt(br)
	if err != nil {
		return nil, fmt.Errorf("imgcore: pnm maxval: %w", err)
	}
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("imgcore: pnm geometry %dx%d invalid", w, h)
	}
	if err := checkPixels(w, h); err != nil {
		return nil, err
	}
	if maxval <= 0 || maxval > 65535 {
		return nil, fmt.Errorf("imgcore: pnm maxval %d invalid", maxval)
	}
	n := w * h * channels
	sampleBytes := 1
	if maxval >= 256 {
		sampleBytes = 2
	}
	buf, err := readBody(br, sampleBytes*n)
	if err != nil {
		return nil, fmt.Errorf("imgcore: pnm samples: %w", err)
	}
	img, err := New(w, h, channels)
	if err != nil {
		return nil, err
	}
	scale := 255.0 / float64(maxval)
	if sampleBytes == 1 {
		for i, b := range buf {
			img.Pix[i] = float64(b) * scale
		}
	} else {
		for i := 0; i < n; i++ {
			v := int(buf[2*i])<<8 | int(buf[2*i+1])
			img.Pix[i] = float64(v) * scale
		}
	}
	return img, nil
}

// readBody reads exactly n bytes. Its buffer starts at 64 KiB at most and
// doubles, capped at n, only while bytes keep arriving, so a short body
// under a large header fails before the image is allocated, and a full body
// ends in a buffer of exactly n bytes after about 2n bytes of allocation.
func readBody(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, min(n, 64<<10))
	read := 0
	for {
		m, err := io.ReadFull(r, buf[read:])
		read += m
		if err == io.EOF && read > 0 {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return nil, err
		}
		if read == n {
			return buf, nil
		}
		next := make([]byte, min(2*len(buf), n))
		copy(next, buf)
		buf = next
	}
}

// EncodePNM writes the image as binary PGM (1 channel) or PPM (3 channels)
// with maxval 255.
func EncodePNM(w io.Writer, m *Image) error {
	if err := m.Validate(); err != nil {
		return err
	}
	magic := "P6"
	if m.C == 1 {
		magic = "P5"
	}
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%s\n%d %d\n255\n", magic, m.W, m.H); err != nil {
		return fmt.Errorf("imgcore: pnm header: %w", err)
	}
	buf := make([]byte, len(m.Pix))
	for i, v := range m.Pix {
		buf[i] = clampByte(v)
	}
	if _, err := bw.Write(buf); err != nil {
		return fmt.Errorf("imgcore: pnm samples: %w", err)
	}
	return bw.Flush()
}

// SavePNM writes a .pgm/.ppm file, creating parent directories as needed.
func (m *Image) SavePNM(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("imgcore: mkdir for %s: %w", path, err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("imgcore: create %s: %w", path, err)
	}
	defer f.Close()
	if err := EncodePNM(f, m); err != nil {
		return fmt.Errorf("imgcore: encode %s: %w", path, err)
	}
	return nil
}

// LoadPNM reads a .pgm/.ppm file.
func LoadPNM(path string) (*Image, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("imgcore: open %s: %w", path, err)
	}
	defer f.Close()
	img, err := DecodePNM(f)
	if err != nil {
		return nil, fmt.Errorf("imgcore: load %s: %w", path, err)
	}
	return img, nil
}

// pnmToken reads the next whitespace-delimited token, skipping '#'
// comments (which run to end of line).
func pnmToken(br *bufio.Reader) (string, error) {
	var tok []byte
	inComment := false
	for {
		b, err := br.ReadByte()
		if err != nil {
			if err == io.EOF && len(tok) > 0 {
				return string(tok), nil
			}
			return "", err
		}
		switch {
		case inComment:
			if b == '\n' {
				inComment = false
			}
		case b == '#':
			inComment = true
		case b == ' ' || b == '\t' || b == '\n' || b == '\r':
			if len(tok) > 0 {
				return string(tok), nil
			}
		default:
			tok = append(tok, b)
		}
	}
}

func pnmInt(br *bufio.Reader) (int, error) {
	tok, err := pnmToken(br)
	if err != nil {
		return 0, err
	}
	v, err := strconv.Atoi(tok)
	if err != nil {
		return 0, fmt.Errorf("bad integer %q: %w", tok, err)
	}
	return v, nil
}
