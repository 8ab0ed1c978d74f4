"""The benchmark's workloads and their seeded synthetic inputs.

Every song is a list of constant-tempo parts, each a string of one-letter
bar labels and a bar length in seconds. A part is rendered with
`barseg.synthetic.make_song`; parts are concatenated and the later
downbeat grids offset by the audio before them, so a song may change
tempo. The seed seeds the noise of every bar; the section layout, chords,
bar lengths and durations are fixed, so every seed asks for the same
amount of work and has the same true boundaries.

`write_inputs` writes `audio.wav`, `downbeats.txt` and `annotations.txt`
per song, in the layout of `synthetic.write_song_dir`; the program under
test receives only those files.
"""

import os

import numpy as np

SAMPLE_RATE = 44100

# 120 bars of 2.0 s in 8- and 16-bar sections: a 4-minute song.
SONG4M = [("A" * 8 + "B" * 16 + "A" * 8 + "C" * 16 + "D" * 8 + "B" * 8
           + "A" * 16 + "C" * 8 + "D" * 16 + "B" * 8 + "A" * 8, 2.0)]
# synthetic.DEFAULT_STRUCTURE, the acceptance song.
SONG16S = [("AAAABBBBAAAABBBBCCCCCCCCAAAAAAAA", 0.5)]

WORKLOADS = {
    "song4m_pca": {
        "command": "segment",
        "songs": {"audio": SONG4M},
        "args": ["--feature", "nnlms", "--compressor", "pca", "--dc", "32"],
    },
    "batch3_nmf": {
        "command": "batch",
        "songs": {
            "s1_bar050": [("AAAABBBBCCCCCCCCAAAABBBBDDDDDDDD", 0.5)],
            "s2_bar075": [("AAAAAAAABBBBCCCCAAAAAAAADDDDBBBB", 0.75)],
            "s3_tempo": [("AAAAAAAABBBBBBBB", 0.5), ("CCCCCCCCAAAAAAAA", 0.8)],
        },
        "args": ["--feature", "nnlms", "--compressor", "nmf", "--dc", "24"],
    },
    "song16s_ae": {
        "command": "segment",
        "songs": {"audio": SONG16S},
        "args": ["--feature", "nnlms", "--compressor", "ae", "--dc", "8", "--ae-max-epochs", "30"],
    },
}


def render(parts, seed):
    """Samples, downbeat times and true boundary times of one song.

    `seed` is a tuple of ints; part i is rendered with seed (*seed, i).
    """
    from barseg import synthetic

    samples, downbeats, labels = [], [0.0], ""
    offset = 0.0
    for i, (structure, bar_seconds) in enumerate(parts):
        audio, grid, _ = synthetic.make_song(structure, bar_seconds, SAMPLE_RATE, seed=[*seed, i])
        samples.append(audio)
        downbeats.extend(offset + grid.downbeats[1:])
        offset += len(audio) / SAMPLE_RATE
        labels += structure
    changes = [i for i in range(1, len(labels)) if labels[i] != labels[i - 1]]
    truth = [downbeats[0]] + [downbeats[i] for i in changes] + [downbeats[-1]]
    return np.concatenate(samples), downbeats, truth


def write_song(directory, parts, seed):
    """Write one song's three input files; returns (downbeats, truth)."""
    import scipy.io.wavfile

    samples, downbeats, truth = render(parts, seed)
    os.makedirs(directory, exist_ok=True)
    pcm = np.clip(samples * 32767.0, -32768, 32767).astype(np.int16)
    scipy.io.wavfile.write(os.path.join(directory, "audio.wav"), SAMPLE_RATE, pcm)
    # The program reads these rounded texts; the checks use the same values.
    downbeats = [float(f"{t:.6f}") for t in downbeats]
    truth = [float(f"{t:.6f}") for t in truth]
    with open(os.path.join(directory, "downbeats.txt"), "w") as fh:
        fh.writelines(f"{t:.6f}\n" for t in downbeats)
    with open(os.path.join(directory, "annotations.txt"), "w") as fh:
        fh.writelines(f"{s:.6f}\t{e:.6f}\tsection\n" for s, e in zip(truth[:-1], truth[1:]))
    return downbeats, truth


def write_inputs(name, seed, directory):
    """Write a workload's inputs under `directory`.

    Returns (barseg CLI argv, {song_id: (downbeats, truth)}); the argv's
    `--out` is `<directory>/out`.
    """
    spec = WORKLOADS[name]
    truth = {}
    for i, (song_id, parts) in enumerate(spec["songs"].items()):
        song_dir = os.path.join(directory, "data", song_id)
        truth[song_id] = write_song(song_dir, parts, (seed, i))
    out = os.path.join(directory, "out")
    if spec["command"] == "batch":
        argv = ["batch", os.path.join(directory, "data"), "--out", out]
    else:
        (song_id,) = spec["songs"]
        song_dir = os.path.join(directory, "data", song_id)
        argv = ["segment", os.path.join(song_dir, "audio.wav"),
                "--downbeats", os.path.join(song_dir, "downbeats.txt"),
                "--annotations", os.path.join(song_dir, "annotations.txt"), "--out", out]
    return argv + spec["args"], truth
