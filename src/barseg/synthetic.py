"""Synthetic structured songs for demos and end-to-end verification.

A song is a sequence of one-bar sections, each rendered as a sustained
four-note chord plus low-level noise. Distinct section letters use
chords in disjoint frequency bands so their time-frequency content is
well separated.
"""

import os
import wave

import numpy as np

from .bars import BarGrid
from .evaluate import BoundarySet

DEFAULT_STRUCTURE = "AAAABBBBAAAABBBBCCCCCCCCAAAAAAAA"

# One four-note chord per section letter, in disjoint frequency bands.
CHORDS = {
    "A": (220.0, 277.18, 329.63, 415.30),
    "B": (587.33, 739.99, 880.00, 1108.73),
    "C": (1567.98, 1975.53, 2349.32, 2959.96),
    "D": (98.0, 123.47, 146.83, 185.0),
}


def make_song(structure=DEFAULT_STRUCTURE, bar_seconds=0.5, sample_rate=44100,
              noise_db=-30.0, seed=1234):
    """Render a structured song; returns (samples, BarGrid, BoundarySet).

    The boundary set marks section-letter changes (plus the start and
    end), which is the ground truth a structure analysis should recover.
    """
    structure = structure.replace(" ", "")
    if not structure:
        raise ValueError("structure must name at least one bar")
    rng = np.random.default_rng(seed)
    bar_samples = int(round(bar_seconds * sample_rate))
    t = np.arange(bar_samples) / sample_rate
    chord_amp = 0.2
    noise_amp = 4 * chord_amp * 10.0 ** (noise_db / 20.0)

    pieces = []
    for letter in structure:
        if letter not in CHORDS:
            raise ValueError(f"no chord defined for section letter {letter!r}")
        bar = sum(chord_amp * np.sin(2 * np.pi * freq * t) for freq in CHORDS[letter])
        bar = bar + noise_amp * rng.standard_normal(bar_samples)
        pieces.append(bar)
    samples = np.concatenate(pieces)

    downbeats = np.arange(len(structure) + 1) * bar_seconds
    changes = [0.0]
    for i in range(1, len(structure)):
        if structure[i] != structure[i - 1]:
            changes.append(i * bar_seconds)
    changes.append(len(structure) * bar_seconds)
    return samples, BarGrid(downbeats), BoundarySet(np.asarray(changes))


def write_song_dir(directory, structure=DEFAULT_STRUCTURE, bar_seconds=0.5,
                   sample_rate=44100, noise_db=-30.0, seed=1234):
    """Write audio.wav (16-bit mono PCM), downbeats.txt, and annotations.txt for one song."""
    os.makedirs(directory, exist_ok=True)
    samples, grid, annot = make_song(structure, bar_seconds, sample_rate, noise_db, seed)
    pcm = np.clip(samples * 32767.0, -32768, 32767).astype(np.int16)
    with wave.open(os.path.join(directory, "audio.wav"), "wb") as out:
        out.setnchannels(1)
        out.setsampwidth(2)
        out.setframerate(sample_rate)
        out.writeframes(pcm.astype("<i2").tobytes())
    with open(os.path.join(directory, "downbeats.txt"), "w") as fh:
        for t in grid.downbeats:
            fh.write(f"{t:.6f}\n")
    with open(os.path.join(directory, "annotations.txt"), "w") as fh:
        for start, end in zip(annot.times[:-1], annot.times[1:]):
            fh.write(f"{start:.6f}\t{end:.6f}\tsection\n")
    return grid, annot
