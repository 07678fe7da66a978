"""Seeded workload generator with planted truth.

Each generator builds its documents or questions from typed parts (sentences,
headings, noise lines of a known class, boilerplate at chosen frequencies)
and derives the expected outcome of every stage from those parts, never from
the program's own code. The same seed gives byte-identical inputs and truth.

    python3 benchmarks/gen.py corpus_ja 7 DIR    # writes the inputs and DIR/truth.json
"""

from __future__ import annotations

import json
import os
import random
import shlex
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import stubs

THRESHOLD = 15  # the pipeline's default sentence_frequency_threshold
CUE_WORDS = ("株式会社", "決算", "売上高", "経営戦略")
RULES = {
    "version": "bench-1",
    "url_patterns": ["https://biz.example.jp/", "https://*.example.co.jp/news/*"],
    "cue_words": list(CUE_WORDS),
}
URL_IN = ("https://biz.example.jp/a/", "https://www.example.co.jp/news/")
URL_OUT = "https://travel.example.org/p/"

_SUBJECTS = ("当社", "同社", "各社", "政府", "業界", "銀行", "投資家", "地方企業", "新興企業", "大手")
_NOUNS = (
    "技術", "製品", "需要", "価格", "設備", "人材", "物流", "資金", "電力", "輸出", "半導体",
    "市場", "工場", "店舗", "顧客", "部品", "在庫", "金利", "為替", "賃金", "研究", "素材",
    "通信", "保険", "建設", "農業", "観光", "医療", "教育", "広告",
)
_OFF_NOUNS = ("料理", "温泉", "季節", "公園", "山道", "野菜", "花火", "写真", "旅館", "海辺", "紅葉", "祭り")
_ADVERBS = ("すこしずつ", "おおきく", "すばやく", "ゆっくりと", "ふたたび", "さらに", "かなり", "しっかりと")
_VERBS = (
    "のばしています", "みなおしました", "ひろげる見通しです", "おさえる方針です", "たかめていきます",
    "つよめています", "あらためました", "そろえる予定です", "うちだしました", "すすめています",
)
_FOOTERS = (
    "このサイトの記事の無断転載はかたくお断りします。",
    "お問い合わせはページ下部のフォームからお願いします。",
    "掲載している情報は公開時点のものです。",
    "記事の内容についてのご意見をお寄せください。",
)
_MENU = ("ホーム", "会社", "採用", "地図", "IR", "TOP", "検索", "ENG")
_KANA_MENU = ("ホーム", "サイト", "ヘルプ", "マップ", "トップ", "ブログ", "リンク", "しごと")
_EN = ("market", "company", "growth", "supply", "report", "energy", "retail", "profit", "demand", "export")
_ZH = "市场企业技术发展经济投资银行政府产品价格需求增长研究制造"
_KO = ("시장", "기업", "기술", "성장", "투자", "수출", "가격", "연구", "경제", "제품")
_RU = ("рынок", "компания", "рост", "спрос", "экспорт", "цена", "банк", "отчёт", "энергия", "товар")
_TH = ("ตลาด", "บริษัท", "เทคโนโลยี", "การเติบโต", "การลงทุน", "ราคา", "สินค้า", "ธนาคาร", "พลังงาน", "การส่งออก")


# ---------------------------------------------------------------------------
# Document model: lines are ("text", [units]) or ("noise", class, line) or
# ("blank",). A unit is one sentence ending in a terminator, or one heading
# with no terminator, so the pipeline's terminator split yields exactly the
# units of a line.
# ---------------------------------------------------------------------------


@dataclass
class Doc:
    id: str
    source: str
    url: str
    lang: str
    lines: list
    date: str
    cue: bool = False

    @property
    def url_match(self) -> bool:
        return self.url.startswith(URL_IN)

    def text(self) -> str:
        return "\n".join(_render(line) for line in self.lines)

    def record(self) -> dict:
        return {"id": self.id, "url": self.url, "source": self.source, "date": self.date, "text": self.text()}


def _render(line) -> str:
    if line[0] == "text":
        return "".join(line[1])
    if line[0] == "noise":
        return line[2]
    return ""


@dataclass
class Gen:
    rng: random.Random
    seen: set = field(default_factory=set)

    def unique(self, make) -> str:
        while True:
            s = make()
            if s not in self.seen:
                self.seen.add(s)
                return s

    def quota(self, shares: dict, n: int) -> list:
        """``n`` labels in seeded order, each label's count fixed by its
        share, so every seed gets the same mix."""
        total = sum(shares.values())
        counts = {k: int(n * v / total) for k, v in shares.items()}
        for k in list(shares)[: n - sum(counts.values())]:
            counts[k] += 1
        out = [k for k, c in counts.items() for _ in range(c)]
        self.rng.shuffle(out)
        return out

    def ja_sentence(self, nouns=_NOUNS, subjects=_SUBJECTS) -> str:
        r = self.rng

        def make():
            n = r.randrange(2, 99)
            return (
                f"{r.choice(subjects)}は{n}年ぶりに{r.choice(nouns)}の{r.choice(nouns)}を"
                f"{r.choice(_ADVERBS)}{r.choice(_VERBS)}。"
            )

        return self.unique(make)

    def cue_sentence(self) -> str:
        r = self.rng
        return self.unique(
            lambda: f"{r.choice(_NOUNS)}{r.choice(_NOUNS)}株式会社は第{r.randrange(1, 99)}期の決算で"
            f"{r.choice(_NOUNS)}の売上高が{r.choice(_ADVERBS)}{r.choice(_VERBS)}。"
        )

    def heading(self, nouns=_NOUNS) -> str:
        r = self.rng
        return self.unique(lambda: f"{r.choice(nouns)}と{r.choice(nouns)}の{r.randrange(1, 999)}の話題")

    def noise(self) -> tuple:
        r = self.rng
        kind = r.choice(("date_only", "date_only", "url_only", "markup_fragment", "markup_fragment"))
        y, m, d = r.randrange(2000, 2025), r.randrange(1, 13), r.randrange(1, 29)
        if kind == "date_only":
            line = r.choice(
                (f"{y}-{m:02d}-{d:02d}", f"{y}/{m}/{d}", f"{y}年{m}月{d}日", f"令和{r.randrange(1, 7)}年{m}月{d}日")
            )
        elif kind == "url_only":
            line = f"https://www.example.jp/{r.choice(_EN)}/{r.randrange(10**6)}"
        elif r.random() < 0.5:
            line = '<div class="nav"><span>'
        else:
            line = r.choice((" | ", " › ", "｜")).join(r.sample(_MENU, r.randrange(3, 6)))
        return ("noise", kind, line)

    def date(self) -> str:
        r = self.rng
        return f"{r.randrange(2020, 2025)}-{r.randrange(1, 13):02d}-{r.randrange(1, 29):02d}"

    def foreign(self, lang: str) -> list:
        r = self.rng
        lines = []
        for _ in range(r.randrange(1, 4)):
            n = r.randrange(2, 5)
            if lang == "en":
                line = " ".join(
                    f"The {r.choice(_EN)} team expects {r.choice(_EN)} to rise by {r.randrange(1, 99)} points."
                    for _ in range(n)
                )
            elif lang == "zh":
                line = "".join("".join(r.choices(_ZH, k=r.randrange(8, 20))) + "。" for _ in range(n))
            elif lang == "ko":
                line = " ".join(" ".join(r.choices(_KO, k=5)) + "입니다." for _ in range(n))
            elif lang == "ru":
                line = " ".join(" ".join(r.choices(_RU, k=6)).capitalize() + "." for _ in range(n))
            else:  # Thai: no sentence punctuation
                line = " ".join(r.choices(_TH, k=r.randrange(10, 25)))
            lines.append(line)
        return [("text", [line]) for line in lines]


# ---------------------------------------------------------------------------
# Planted truth: the fate of every document, from its parts
# ---------------------------------------------------------------------------


def _nonzero(d: dict) -> dict:
    return {k: v for k, v in sorted(d.items()) if v}


def simulate(files: list[tuple[str, list[Doc]]]) -> dict:
    """Expected per-stage removals, line counts and cleaned output."""
    stages = []
    docs: list[Doc] = []
    for name, file_docs in files:
        stages.append({"stage": f"ingest:{name}", "doc_removals": {}, "detail": {"ingested": len(file_docs)}})
        docs.extend(file_docs)

    kept = [d for d in docs if d.url_match or d.cue]
    stages.append({"stage": "curate", "doc_removals": _nonzero({"no_rule_match": len(docs) - len(kept)}), "detail": None})

    removals = Counter(f"lang:{d.lang}" for d in kept if d.lang != "ja")
    docs = [d for d in kept if d.lang == "ja"]
    stages.append({"stage": "lang_id", "doc_removals": _nonzero(removals), "detail": None})

    removals, detail, denoised = Counter(), Counter(), []
    for d in docs:
        text_lines = []
        for line in d.lines:
            if line[0] == "blank":
                detail["lines_blank"] += 1
            elif line[0] == "noise":
                detail[f"lines_{line[1]}"] += 1
            else:
                text_lines.append(line[1])
        if not text_lines:
            removals["empty_after_strip"] += 1
            continue
        sentential = sum(1 for units in text_lines if units[-1][-1] in "。！？.!?")
        if sentential / len(text_lines) < 0.5:
            removals["non_sentential"] += 1
            continue
        denoised.append((d, text_lines))
    stages.append({"stage": "noise_filter", "doc_removals": _nonzero(removals), "detail": _nonzero(detail)})

    first_seen, unique = set(), []
    for d, text_lines in denoised:
        key = "\n".join("".join(u) for u in text_lines)
        if key not in first_seen:
            first_seen.add(key)
            unique.append((d, text_lines))
    dupes = len(denoised) - len(unique)
    stages.append({"stage": "dedup_documents", "doc_removals": _nonzero({"duplicate_document": dupes}), "detail": None})

    freq = Counter(u for _, text_lines in unique for units in text_lines for u in units)
    survivors, emptied, removed = [], 0, 0
    for d, text_lines in unique:
        out_lines, removed_any = [], False
        for units in text_lines:
            keep = [u for u in units if freq[u] <= THRESHOLD]
            removed += len(units) - len(keep)
            removed_any = removed_any or len(keep) < len(units)
            if keep:
                out_lines.append("".join(keep))
        if removed_any and not out_lines:
            emptied += 1
            continue
        survivors.append([d.id, d.source, "\n".join(out_lines)])
    stages.append(
        {
            "stage": "dedup_sentences",
            "doc_removals": _nonzero({"emptied_by_sentence_dedup": emptied}),
            "detail": _nonzero({"sentences_removed": removed}),
        }
    )
    return {"stages": stages, "survivors": survivors}


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _plant(g: Gen, carriers: list[Doc], freq: int, sentence: str) -> None:
    """Insert one boilerplate sentence into ``freq`` distinct carrier docs."""
    for d in g.rng.sample(carriers, freq):
        text_lines = [line for line in d.lines if line[0] == "text" and line[1][-1].endswith("。")]
        units = g.rng.choice(text_lines)[1]
        units.insert(g.rng.randrange(len(units) + 1), sentence)


def _with_copies(g: Gen, originals: list[Doc], share: float, eligible) -> list[Doc]:
    """Interleave exact copies (new ids, same text) of earlier eligible
    originals, so that about ``share`` of the returned docs are copies."""
    n_copies = round(len(originals) * share / (1 - share))
    slots = set(g.rng.sample(range(1, len(originals) + n_copies), n_copies))
    out: list[Doc] = []
    pool: list[Doc] = []
    for d in originals:
        while pool and len(out) in slots:
            src = g.rng.choice(pool)
            out.append(Doc("", "", src.url, src.lang, src.lines, src.date, src.cue))
        out.append(d)
        if eligible(d):
            pool.append(d)
    return out


def _write_files(work: Path, prefix: str, docs: list[Doc], split: list[tuple[str, float]]) -> list[tuple[str, list[Doc]]]:
    files, start = [], 0
    for i, (source, share) in enumerate(split):
        end = len(docs) if i == len(split) - 1 else start + round(len(docs) * share)
        chunk = docs[start:end]
        for j, d in enumerate(chunk):
            d.id, d.source = f"{prefix}-{source}-{j:05d}", source
        name = f"{source}.jsonl"
        with (work / name).open("w", encoding="utf-8") as fh:
            for d in chunk:
                fh.write(json.dumps(d.record(), ensure_ascii=False) + "\n")
        files.append((name, chunk))
        start = end
    return files


def _write_config(work: Path, files, workers: int, classifier: bool) -> Path:
    (work / "rules.json").write_text(json.dumps(RULES, ensure_ascii=False), encoding="utf-8")
    lang_id: dict = {"uncertainty_threshold": 0.9}
    if classifier:
        stub = Path(__file__).resolve().with_name("stubs.py")
        lang_id["classifier_cmd"] = shlex.join([sys.executable, str(stub), "classifier"])
    config = {
        "seed": 1,
        "output_dir": "out",
        "workers": workers,
        "sources": [{"path": name, "source": name.removesuffix(".jsonl")} for name, _ in files],
        "curation": {"rules_file": "rules.json"},
        "lang_id": lang_id,
        "dedup": {"sentence_frequency_threshold": THRESHOLD},
    }
    path = work / "pipeline.json"  # JSON is valid YAML
    path.write_text(json.dumps(config, ensure_ascii=False, indent=1), encoding="utf-8")
    return path


def _corpus_spec(work: Path, config: Path, files) -> dict:
    return {
        "config": str(config),
        "inputs": [str(work / name) for name, _ in files],
        "records": sum(len(docs) for _, docs in files),
        "truth": simulate(files),
    }


def _article(g: Gen, url_match: bool, n_lines: int) -> Doc:
    r = g.rng
    lines: list = [("text", [g.heading()])]
    if r.random() < 0.3:
        lines.insert(0, g.noise())
    for k in range(n_lines):
        if k and r.random() < 0.15:
            lines.append(("blank",))
        lines.append(("text", [g.ja_sentence() for _ in range(r.randrange(6, 14))]))
    cue = not url_match or r.random() < 0.5
    if cue:
        lines[-1][1].append(g.cue_sentence())
    if r.random() < 0.2:
        lines.append(g.noise())
    url = r.choice(URL_IN) if url_match else URL_OUT
    return Doc("", "", f"{url}{r.randrange(10**8)}", "ja", lines, g.date(), cue)


def corpus_ja(seed: int, scale: float, work: Path) -> dict:
    """Article-length Japanese documents: per-character stages dominate."""
    g = Gen(random.Random(f"corpus_ja:{seed}"))
    r = g.rng
    n = max(40, round(150 * scale))
    kinds = g.quota({"article": 92, "english": 3, "off_domain": 3, "toc": 2}, n)
    n_articles = kinds.count("article")
    url_match = iter(g.quota({True: 7, False: 3}, n_articles))
    n_lines = iter(g.quota({k: 1 for k in range(4, 9)}, n_articles))
    originals, articles = [], []
    for kind in kinds:
        if kind == "article":
            articles.append(_article(g, next(url_match), next(n_lines)))
            originals.append(articles[-1])
        elif kind == "english":
            originals.append(Doc("", "", f"{URL_IN[0]}{r.randrange(10**8)}", "en", g.foreign("en"), g.date()))
        elif kind == "off_domain":
            lines = [("text", [g.ja_sentence(_OFF_NOUNS, ("旅行者", "料理人", "家族"))
                               for _ in range(r.randrange(6, 12))]) for _ in range(r.randrange(3, 6))]
            originals.append(Doc("", "", f"{URL_OUT}{r.randrange(10**8)}", "ja", lines, g.date()))
        else:  # a table of contents: headings without terminators
            lines = [("text", [g.heading()]) for _ in range(r.randrange(5, 9))]
            lines.append(("text", [g.ja_sentence()]))
            originals.append(Doc("", "", f"{URL_IN[0]}{r.randrange(10**8)}", "ja", lines, g.date()))
    _plant(g, articles, THRESHOLD, "本記事は会員限定の特集をもとに再構成したものです。")
    _plant(g, articles, THRESHOLD + 1, "記事中の数値は各社の公表資料にもとづきます。")
    _plant(g, articles, max(THRESHOLD + 2, len(articles) // 3), "続きは会員登録のうえでお読みいただけます。")
    docs = _with_copies(g, originals, 0.04, lambda d: d in articles)
    files = _write_files(work, "ja", docs, [("curated_business", 0.6), ("wikipedia", 0.4)])
    config = _write_config(work, files, workers=1, classifier=False)
    return _corpus_spec(work, config, files)


def corpus_crawl(seed: int, scale: float, work: Path) -> dict:
    """Many short web pages: ingest, classifier IPC, noise and dedup dominate."""
    g = Gen(random.Random(f"corpus_crawl:{seed}"))
    r = g.rng
    n = max(60, round(1200 * scale))
    kinds = g.quota({"page": 48, "menu": 5, "noise_only": 2, "footer_only": 2, "off_domain": 4, "foreign": 39}, n)
    langs = iter(g.quota({lang: 1 for lang in ("en", "zh", "ko", "th", "ru")}, kinds.count("foreign")))
    originals = []

    def footer():
        return ("text", r.sample(_FOOTERS, r.randrange(1, 3)))

    for kind in kinds:
        url = f"{r.choice(URL_IN)}{r.randrange(10**8)}"
        lines: list
        if kind == "page":
            lines = [g.noise() for _ in range(r.randrange(1, 4))]
            if r.random() < 0.5:
                lines.append(("text", [g.heading()]))
            lines.append(("text", [g.ja_sentence() for _ in range(r.randrange(2, 4))]))
            lines += [("text", [g.ja_sentence() for _ in range(r.randrange(1, 4))]) for _ in range(r.randrange(0, 3))]
            if r.random() < 0.6:
                lines.append(footer())
            r.shuffle(lines)
            lang = "ja"
        elif kind == "menu":
            lines = [("text", [g.heading()]) for _ in range(r.randrange(3, 6))] + [g.noise()]
            lines.append(("text", [g.ja_sentence()]))
            lang = "ja"
        elif kind == "noise_only":
            # kana menus keep the page Japanese for langid; no URL lines
            lines = [("noise", "markup_fragment", " | ".join(r.sample(_KANA_MENU, 4))) for _ in range(2)]
            lines.insert(1, ("noise", "date_only", f"{r.randrange(2000, 2025)}年{r.randrange(1, 13)}月{r.randrange(1, 29)}日"))
            lang = "ja"
        elif kind == "footer_only":
            lines = [footer() for _ in range(r.randrange(1, 3))]
            lang = "ja"
        elif kind == "off_domain":
            lines = [("text", [g.ja_sentence(_OFF_NOUNS, ("旅行者", "料理人", "家族")) for _ in range(r.randrange(1, 4))])
                     for _ in range(r.randrange(1, 3))]
            url = f"{URL_OUT}{r.randrange(10**8)}"
            lang = "ja"
        else:
            lang = next(langs)
            lines = g.foreign(lang)
        originals.append(Doc("", "", url, lang, lines, g.date()))
    docs = _with_copies(g, originals, 0.30, lambda d: True)
    files = _write_files(work, "cc", docs, [("common_crawl", 0.5), ("mc4", 0.3), ("cc100", 0.2)])
    workers = len(os.sched_getaffinity(0))
    config = _write_config(work, files, workers=workers, classifier=True)
    return _corpus_spec(work, config, files)


SETTINGS = ("no_context", "manual_rag", "auto_rag")
TRUNCATION = 1000  # characters, the harness default


def _page_lengths(g: Gen, n: int) -> list[int]:
    """40% of pages shorter than the truncation, 60% longer, lengths evenly
    spread over each range so every seed gets the same total."""
    short = round(n * 0.4)
    lengths = [200 + (TRUNCATION - 200) * i // short for i in range(short)]
    lengths += [TRUNCATION + 1 + 2000 * i // (n - short) for i in range(n - short)]
    g.rng.shuffle(lengths)
    return lengths


def _page(g: Gen, n: int) -> str:
    text = ""
    while len(text) < n:
        text += g.ja_sentence()
    return text[:n]


def bench_qa(seed: int, scale: float, work: Path) -> dict:
    """Questions for the three settings, with planted error and skip shares."""
    g = Gen(random.Random(f"bench_qa:{seed}"))
    r = g.rng
    n = max(24, round(300 * scale))
    has_manual = g.quota({True: 9, False: 1}, n)  # without a manual page manual_rag ends in error
    has_auto = g.quota({True: 1, False: 1}, n)  # without one auto_rag goes to the search backend
    lengths = iter(_page_lengths(g, has_manual.count(True) + has_auto.count(True)))
    categories = ("current_affairs", "corporate_activities", "social_issues", "trends")
    questions = []
    for i in range(n):
        q = {
            "id": f"q-{i:04d}",
            "category": categories[i % 4],
            "question_set": ("non_latest", "latest")[(i // 4) % 2],
            "question": g.unique(
                lambda: f"{r.choice(_SUBJECTS)}による{r.choice(_NOUNS)}と{r.choice(_NOUNS)}の"
                f"見通しを{r.randrange(1, 99)}件だけ挙げてください。"
            ),
        }
        if has_manual[i]:
            q["manual_context"] = _page(g, next(lengths))
        if has_auto[i]:
            q["auto_context"] = _page(g, next(lengths))
        questions.append(q)
    with (work / "questions.jsonl").open("w", encoding="utf-8") as fh:
        for q in questions:
            fh.write(json.dumps(q, ensure_ascii=False) + "\n")

    truth: dict = {}
    verdict_files = {}
    for setting in SETTINGS:
        status, pages = {}, {}
        for q in questions:
            if setting == "no_context":
                status[q["id"]] = "ok"
            elif setting == "manual_rag":
                status[q["id"]] = "ok" if "manual_context" in q else "error"
                pages[q["id"]] = q.get("manual_context")
            elif "auto_context" in q:
                status[q["id"]], pages[q["id"]] = "ok", q["auto_context"]
            elif stubs.search_has_body(q["question"]):
                status[q["id"]] = "ok"
                pages[q["id"]] = next(x["body"] for x in stubs.search_results(q["question"]) if x["body"])
            else:
                status[q["id"]] = "skipped"
        correct = 0
        verdict_files[setting] = str(work / f"verdicts-{setting}.jsonl")
        with open(verdict_files[setting], "w", encoding="utf-8") as fh:
            for qid in (q["id"] for q in questions if status[q["id"]] == "ok"):
                v = {"question_id": qid, "content_faithful": r.random() < 0.8, "instruction_followed": r.random() < 0.9}
                correct += v["content_faithful"] and v["instruction_followed"]
                fh.write(json.dumps(v) + "\n")
        n_ok = sum(1 for s in status.values() if s == "ok")
        truth[setting] = {
            "status": status,
            "status_counts": dict(sorted(Counter(status.values()).items())),
            "pages": {k: v for k, v in pages.items() if v is not None},
            "accuracy": correct / n_ok,
        }
    stub = Path(__file__).resolve().with_name("stubs.py")
    return {
        "questions": str(work / "questions.jsonl"),
        "inputs": [str(work / "questions.jsonl")],
        "records": n,
        "verdicts": verdict_files,
        "model_cmd": [sys.executable, str(stub), "model"],
        "search_cmd": [sys.executable, str(stub), "search"],
        "max_in_flight": len(os.sched_getaffinity(0)),
        "truncation": TRUNCATION,
        "truth": truth,
    }


WORKLOADS = {"corpus_ja": corpus_ja, "corpus_crawl": corpus_crawl, "bench_qa": bench_qa}

if __name__ == "__main__":
    workload, seed, out = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    out.mkdir(parents=True, exist_ok=True)
    spec = WORKLOADS[workload](seed, 1.0, out)
    (out / "truth.json").write_text(json.dumps(spec, ensure_ascii=False, indent=1), encoding="utf-8")
