"""Seeded synthetic inputs at the Adult and Bios shapes.

Each family has a fixed "world" and per-seed records. The world plays the
part of the public resources a real study downloads once: the name
demographics tables and a 300-d word-vector file whose name vectors carry
race and gender signal, padded with distractor tokens. It is generated from
a constant seed, so it is the same for every workload seed. The records (the
CSV rows or the biographies) are drawn from the workload seed. The program
under test only ever sees the written files.

Adult family: ~48k rows, 13 feature columns that expand to 93 features
(5 continuous, 88 one-hot), 2 classes, race and sex group columns, and
names drawn by the program from ``--names-demographics``.

Bios family: 24k biographies over the 28 occupations of Bias in Bios, each
with a first and a last name and a document of Zipf filler words,
occupation and pair topic words, and gender- and race-associated words.
The occupations come in confusable pairs, one leaning white and one
non-white; on the half of the documents that carry only pair words, the
race words decide, so the unpenalized classifier shows race TPR gaps. Name
vectors sit in 12 race-by-origin blobs with a small gender offset, so
k-means with k=12 recovers them. Two worlds differ only in how many names
have a vector: "bios" (45% of first, 10% of last names) and
"bios-low-coverage" (15% and 4%), which keeps k-means to a few thousand
points per fit.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

DIM = 300
WORLD_SEED = 20190411

# --- Adult family ---------------------------------------------------------

ADULT_ROWS = 48_000
ADULT_NAMES_PER_CATEGORY = 300       # first names per race x gender cell
ADULT_NAME_COVERAGE = 0.9            # share of first names with a vector
ADULT_DISTRACTORS = 10_000           # vector lines that are not names

RACES = ("White", "Black", "Asian-Pac-Islander", "Amer-Indian-Eskimo", "Other")
RACE_SHARES = (0.5, 0.25, 0.13, 0.06, 0.06)
CATEGORICAL_SIZES = {                # column -> number of categories
    "workclass": 8,
    "education": 16,
    "marital_status": 7,
    "occupation": 14,
    "relationship": 6,
    "native_country": 35,
}
ADULT_COLUMNS = (
    "age", "workclass", "fnlwgt", "education", "education_num",
    "marital_status", "occupation", "relationship", "race", "sex",
    "capital_gain", "capital_loss", "hours_per_week", "native_country",
    "income",
)
ADULT_SCHEMA = """\
age continuous
workclass categorical
fnlwgt ignore
education categorical
education_num continuous
marital_status categorical
occupation categorical
relationship categorical
race categorical group=White
sex categorical group=Male
capital_gain continuous
capital_loss continuous
hours_per_week continuous
native_country categorical
income label
"""

# --- Bios family ----------------------------------------------------------

BIOS_DOCS = 24_000
OCCUPATIONS = (
    "accountant", "architect", "attorney", "chiropractor", "comedian",
    "composer", "dentist", "dietitian", "dj", "filmmaker",
    "interior_designer", "journalist", "model", "nurse", "painter",
    "paralegal", "pastor", "personal_trainer", "photographer", "physician",
    "poet", "professor", "psychologist", "rapper", "software_engineer",
    "surgeon", "teacher", "yoga_teacher",
)
FILLER_TYPES = 300                   # Zipf filler; vocabulary pruning drops its head
FILLER_ZIPF = 0.7
FILLER_PER_DOC = 30
TOPIC_WORDS = 20                     # per occupation
PAIR_WORDS = 40                      # per pair of confusable occupations
TOPIC_PER_DOC = 6                    # own words and pair words, each
AMBIGUOUS_SHARE = 0.5                # docs with pair words in place of own words
RACE_TILT = 0.7                      # log-odds of white within each pair
PROXY_WORDS = 150                    # per gender and per race
GENDER_PER_DOC = 3
RACE_PER_DOC = 8
WHITE_SHARE = 0.5
BIOS_ORIGINS = 6                     # name origins per race
BIOS_FIRST_PER_CELL = 250            # first names per race x gender x origin
BIOS_LAST_PER_CELL = 400             # last names per race x origin
# share of first and last names with a vector, per world variant
BIOS_COVERAGE = {"bios": (0.45, 0.10), "bios-low-coverage": (0.15, 0.04)}
BIOS_DISTRACTORS = 50_000


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _words(rng, count: int, prefix: str, taken: set[str]) -> list[str]:
    """count distinct pronounceable lowercase tokens not in taken."""
    consonants = "bcdfghjklmnprstvz"
    vowels = "aeiou"
    out = []
    while len(out) < count:
        n_syll = int(rng.integers(2, 4))
        word = prefix + "".join(
            consonants[rng.integers(len(consonants))] + vowels[rng.integers(len(vowels))]
            for _ in range(n_syll)
        )
        if word not in taken:
            taken.add(word)
            out.append(word)
    return out


def _vector_lines(tokens, vectors) -> list[str]:
    fmt = "%s" + " %.5f" * DIM
    return [fmt % (tok, *vec) for tok, vec in zip(tokens, vectors.tolist())]


def _unit(rng) -> np.ndarray:
    v = rng.normal(size=DIM)
    return v / np.linalg.norm(v)


def _write_embeddings(path: Path, name_tokens, name_vectors, rng,
                      n_distractors: int, taken: set[str]) -> None:
    distractors = _words(rng, n_distractors, "x", taken)
    lines = _vector_lines(name_tokens, name_vectors)
    lines += _vector_lines(distractors, rng.normal(0.0, 0.3, (n_distractors, DIM)))
    order = rng.permutation(len(lines))  # names scattered among distractors
    body = "\n".join(lines[i] for i in order)
    _atomic_write(path, f"{len(lines)} {DIM}\n{body}\n")


def _write_table(path: Path, table: dict[str, float]) -> None:
    _atomic_write(path, "".join(f"{k}\t{v:.4f}\n" for k, v in table.items()))


def make_adult_world(directory: Path) -> None:
    """Name tables and vectors for the Adult family (seed-independent)."""
    rng = np.random.default_rng(WORLD_SEED)
    race_dir, gender_dir = _unit(rng), _unit(rng)
    taken: set[str] = set()
    first_white, first_male = {}, {}
    tokens, vectors = [], []
    for white in (1, 0):
        for male in (1, 0):
            names = _words(rng, ADULT_NAMES_PER_CATEGORY, "", taken)
            for name in names:
                pw = rng.uniform(0.6, 0.98) if white else rng.uniform(0.02, 0.4)
                pm = rng.uniform(0.6, 0.98) if male else rng.uniform(0.02, 0.4)
                first_white[name], first_male[name] = pw, pm
                if rng.random() < ADULT_NAME_COVERAGE:
                    tokens.append(name)
                    vectors.append(
                        2.0 * (pw - 0.5) * race_dir + 2.0 * (pm - 0.5) * gender_dir
                        + rng.normal(0.0, 0.05, DIM)
                    )
    directory.mkdir(parents=True, exist_ok=True)
    _write_table(directory / "first_white.tsv", first_white)
    _write_table(directory / "first_male.tsv", first_male)
    _atomic_write(directory / "schema.txt", ADULT_SCHEMA)
    _write_embeddings(directory / "vectors.txt", tokens, np.array(vectors), rng,
                      ADULT_DISTRACTORS, taken)


def make_adult_records(path: Path, seed: int) -> None:
    """ADULT_ROWS census-like rows; income depends on sex and race too."""
    world = np.random.default_rng(WORLD_SEED + 1)  # fixed category layout
    cat_probs = {
        col: world.dirichlet(np.full(size, 2.0)) * 0.9 + 0.1 / size
        for col, size in CATEGORICAL_SIZES.items()
    }
    cat_effects = {col: world.normal(0.0, 0.6, size)
                   for col, size in CATEGORICAL_SIZES.items()}
    sex_shift = {col: world.normal(0.0, 0.8, CATEGORICAL_SIZES[col])
                 for col in ("occupation", "relationship", "marital_status")}
    rng = np.random.default_rng(seed)
    n = ADULT_ROWS
    male = rng.random(n) < 0.55
    race = rng.choice(len(RACES), size=n, p=RACE_SHARES)
    cols: dict[str, np.ndarray] = {}
    logit = np.full(n, -0.6)
    for col, size in CATEGORICAL_SIZES.items():
        base = np.log(cat_probs[col])
        if col in sex_shift:  # sex-dependent category mix (proxies)
            scores = base[None, :] + np.where(male[:, None], 1.0, -1.0) * sex_shift[col]
        else:
            scores = np.broadcast_to(base, (n, size))
        gumbel = rng.gumbel(size=(n, size))
        idx = np.argmax(scores + gumbel, axis=1)
        cols[col] = np.char.add(f"{col[:3]}-", idx.astype(str))
        logit += cat_effects[col][idx]
    edu_num = rng.integers(1, 17, n)
    age = np.clip(rng.normal(39, 13, n), 17, 90).round()
    hours = np.clip(rng.normal(40, 12, n), 1, 99).round()
    gain = np.where(rng.random(n) < 0.08, rng.integers(1000, 99999, n), 0)
    loss = np.where(rng.random(n) < 0.05, rng.integers(100, 4356, n), 0)
    logit += (0.25 * (edu_num - 9) + 0.03 * (age - 39) + 0.03 * (hours - 40)
              + 1.5 * (gain > 0) + 0.5 * (loss > 0))
    logit += 2.0 * male + 2.0 * (race == 0)       # the historical bias
    income = rng.random(n) < 1.0 / (1.0 + np.exp(-logit))
    cols.update(
        age=age.astype(int).astype(str),
        fnlwgt=rng.integers(10_000, 1_500_000, n).astype(str),
        education_num=edu_num.astype(str),
        race=np.array(RACES)[race],
        sex=np.where(male, "Male", "Female"),
        capital_gain=gain.astype(str),
        capital_loss=loss.astype(str),
        hours_per_week=hours.astype(int).astype(str),
        income=np.where(income, ">50K", "<=50K"),
    )
    lines = [",".join(ADULT_COLUMNS)]
    lines += [",".join(row) for row in zip(*(cols[c] for c in ADULT_COLUMNS))]
    _atomic_write(path, "\n".join(lines) + "\n")


def _bios_lexicon() -> dict:
    """Seed-independent word lists, name pools and occupation structure."""
    rng = np.random.default_rng(WORLD_SEED + 2)
    taken: set[str] = set()
    lex = dict(
        filler=_words(rng, FILLER_TYPES, "", taken),
        topics=[_words(rng, TOPIC_WORDS, "", taken) for _ in OCCUPATIONS],
        pair_topics=[_words(rng, PAIR_WORDS, "", taken)
                     for _ in range(len(OCCUPATIONS) // 2)],
        gender_words=[_words(rng, PROXY_WORDS, "", taken) for _ in range(2)],
        race_words=[_words(rng, PROXY_WORDS, "", taken) for _ in range(2)],
        share=rng.permutation(1.0 / np.arange(1, len(OCCUPATIONS) + 1) ** 0.2),
        # log-odds tilt of each occupation towards men
        gender_tilt=rng.normal(0.0, 0.7, len(OCCUPATIONS)),
        first={}, last={}, taken=taken,
    )
    # occupations come in confusable pairs; within a pair the first one
    # leans white and the second non-white
    pairs = rng.permutation(len(OCCUPATIONS)).reshape(-1, 2)
    lex["pair"] = np.empty(len(OCCUPATIONS), dtype=int)
    lex["pair"][pairs[:, 0]] = lex["pair"][pairs[:, 1]] = np.arange(len(pairs))
    lex["race_tilt"] = np.zeros(len(OCCUPATIONS))
    lex["race_tilt"][pairs[:, 0]], lex["race_tilt"][pairs[:, 1]] = RACE_TILT, -RACE_TILT
    for white in (1, 0):
        for origin in range(BIOS_ORIGINS):
            for male in (1, 0):
                lex["first"][white, origin, male] = _words(
                    rng, BIOS_FIRST_PER_CELL, "", taken)
            lex["last"][white, origin] = _words(rng, BIOS_LAST_PER_CELL, "", taken)
    return lex


def make_bios_world(directory: Path, variant: str = "bios") -> None:
    """Name tables and vectors for the Bios family (seed-independent)."""
    first_coverage, last_coverage = BIOS_COVERAGE[variant]
    lex = _bios_lexicon()
    rng = np.random.default_rng(WORLD_SEED + 3)
    race_dir, gender_dir = _unit(rng), _unit(rng)

    def prob(positive):
        return rng.uniform(0.9, 0.99) if positive else rng.uniform(0.01, 0.1)

    first_white, first_male, last_white = {}, {}, {}
    tokens, vectors = [], []
    for white in (1, 0):
        for origin in range(BIOS_ORIGINS):
            center = (6.0 if white else -6.0) * race_dir + 8.0 * _unit(rng)
            for male in (1, 0):
                for name in lex["first"][white, origin, male]:
                    first_white[name], first_male[name] = prob(white), prob(male)
                    if rng.random() < first_coverage:
                        tokens.append(name)
                        vectors.append(center + (1.0 if male else -1.0) * gender_dir
                                       + rng.normal(0.0, 0.15, DIM))
            for name in lex["last"][white, origin]:
                last_white[name] = prob(white)
                if rng.random() < last_coverage:
                    tokens.append(name)
                    vectors.append(center + rng.normal(0.0, 0.15, DIM))
    directory.mkdir(parents=True, exist_ok=True)
    _write_table(directory / "first_white.tsv", first_white)
    _write_table(directory / "first_male.tsv", first_male)
    _write_table(directory / "last_white.tsv", last_white)
    _write_embeddings(directory / "vectors.txt", tokens, np.array(vectors), rng,
                      BIOS_DISTRACTORS, lex["taken"])
    # the name lines alone, for the output checks
    _atomic_write(directory / "name_vectors.txt",
                  "\n".join(_vector_lines(tokens, np.array(vectors))) + "\n")


def make_bios_records(path: Path, seed: int) -> None:
    """BIOS_DOCS text records: label, first, last, document."""
    lex = _bios_lexicon()
    rng = np.random.default_rng(seed)
    n = BIOS_DOCS
    white = (rng.random(n) < WHITE_SHARE).astype(int)
    male = (rng.random(n) < 0.5).astype(int)
    origin = rng.integers(0, BIOS_ORIGINS, n)
    scores = (np.log(lex["share"])[None, :]
              + (2 * male - 1)[:, None] * lex["gender_tilt"]
              + (2 * white - 1)[:, None] * lex["race_tilt"])
    occ = np.argmax(scores + rng.gumbel(size=scores.shape), axis=1)

    # one token table: filler, own topics, pair topics, gender, race words
    filler, topics, pair_topics = lex["filler"], lex["topics"], lex["pair_topics"]
    vocab = np.array(filler + sum(topics, []) + sum(pair_topics, [])
                     + sum(lex["gender_words"], []) + sum(lex["race_words"], []))
    topic0 = len(filler)
    pair0 = topic0 + len(topics) * TOPIC_WORDS
    gender0 = pair0 + len(pair_topics) * PAIR_WORDS
    race0 = gender0 + 2 * PROXY_WORDS
    zipf = 1.0 / np.arange(1, FILLER_TYPES + 1) ** FILLER_ZIPF
    pair = lex["pair"][occ][:, None]
    # ambiguous docs carry no word of their own occupation, only pair words
    ambiguous = (rng.random(n) < AMBIGUOUS_SHARE)[:, None]
    own = np.where(ambiguous, pair0 + pair * PAIR_WORDS + rng.integers(0, PAIR_WORDS, (n, TOPIC_PER_DOC)),
                   topic0 + occ[:, None] * TOPIC_WORDS + rng.integers(0, TOPIC_WORDS, (n, TOPIC_PER_DOC)))
    ids = [
        rng.choice(FILLER_TYPES, size=(n, FILLER_PER_DOC), p=zipf / zipf.sum()),
        own,
        pair0 + pair * PAIR_WORDS + rng.integers(0, PAIR_WORDS, (n, TOPIC_PER_DOC)),
        gender0 + male[:, None] * PROXY_WORDS
        + rng.integers(0, PROXY_WORDS, (n, GENDER_PER_DOC)),
        race0 + white[:, None] * PROXY_WORDS
        + rng.integers(0, PROXY_WORDS, (n, RACE_PER_DOC)),
    ]
    words = vocab[np.hstack(ids)]
    lines = []
    for i in range(n):
        first_pool = lex["first"][white[i], origin[i], male[i]]
        last_pool = lex["last"][white[i], origin[i]]
        first = first_pool[rng.integers(len(first_pool))]
        last = last_pool[rng.integers(len(last_pool))]
        lines.append(f"{OCCUPATIONS[occ[i]]}\t{first}\t{last}\t{' '.join(words[i])}")
    _atomic_write(path, "\n".join(lines) + "\n")
